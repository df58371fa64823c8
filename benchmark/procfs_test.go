package main

import "testing"

const cannedStat = "4242 (hyrec) server)) S 1 4242 4242 0 -1 4194560 2311 0 3 0 157 43 0 0 20 0 9 0 8211356 1267912704 5589 18446744073709551615 4194304 7063153 140722993205792 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 9699328 10014240 25423872 140722993213279 140722993213350 140722993213350 140722993217515 0\n"

const cannedIO = `rchar: 1948623
wchar: 8801
syscr: 4011
syscw: 93
read_bytes: 0
write_bytes: 4096
cancelled_write_bytes: 0
`

const cannedStatus = `Name:	hyrec-server
Umask:	0022
State:	S (sleeping)
VmPeak:	 1238196 kB
VmSize:	 1238196 kB
VmHWM:	   22356 kB
VmRSS:	   21004 kB
Threads:	9
`

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and parentheses; utime=157 and
	// stime=43 ticks must still be found.
	got, err := parseStatCPU(cannedStat)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(157+43) * clockTickUS; got != want {
		t.Errorf("cpu = %d µs, want %d", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2 3"); err == nil {
		t.Error("a truncated stat line must be an error, not zero")
	}
	if _, err := parseStatCPU("no command field"); err == nil {
		t.Error("a stat line without ')' must be an error")
	}
}

func TestParseIOBytes(t *testing.T) {
	got, err := parseIOBytes(cannedIO)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1948623 + 8801); got != want {
		t.Errorf("io = %d, want %d", got, want)
	}
	if _, err := parseIOBytes("rchar: 5\n"); err == nil {
		t.Error("missing wchar must be an error, not zero")
	}
}

func TestParseStatusHWM(t *testing.T) {
	got, err := parseStatusHWM(cannedStatus)
	if err != nil {
		t.Fatal(err)
	}
	if got != 22356 {
		t.Errorf("VmHWM = %d kB, want 22356", got)
	}
	if _, err := parseStatusHWM("VmRSS:\t 1 kB\n"); err == nil {
		t.Error("missing VmHWM must be an error, not zero")
	}
}
