// Command hyrec-benchmark measures a HyRec deployment end to end and
// layer by layer. It runs the real server binaries as child processes,
// drives them over loopback from closed-loop client goroutines, reads
// their cost from /proc, checks their outputs, and prints every metric
// BENCHMARK.json declares. See README.md for the contract.
//
// It expects hyrec-server and hyrec-node beside its own executable;
// run.sh builds all three.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hyrec-benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "traffic seed: where each client goroutine starts in the trace, and the order users are visited in")
		seconds = fs.Float64("seconds", 0, "measured window per workload (default: run_seconds of the spec)")
		trace   = fs.Int("trace", 0, "1 = run the traced in-process layer pass and print per-layer metrics; 0 = end-to-end metrics")
		aaRuns  = fs.Int("aa", 0, "A/A check: run every workload this many times, twice over, and judge spread and median gap by the spec's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fatal(err)
	}
	if *aaRuns > 0 {
		return aaCheck(spec, *aaRuns)
	}
	if err := checkProcfs(); err != nil {
		return fatal(err)
	}
	serverCPUs, err := partitionCPUs()
	if err != nil {
		return fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		return fatal(err)
	}
	// run.sh puts the binaries in benchmark/out/bin; logs, span files and
	// results.json go beside it in benchmark/out.
	binDir := filepath.Dir(exe)
	outDir := filepath.Dir(binDir)
	for _, bin := range []string{"hyrec-server", "hyrec-node"} {
		if _, err := os.Stat(filepath.Join(binDir, bin)); err != nil {
			return fatal(fmt.Errorf("%s is not beside %s; build with benchmark/run.sh: %w", bin, exe, err))
		}
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if err := spec.checkWorkloads(); err != nil {
		return fatal(err)
	}

	// One closed-loop client goroutine per CPU of the box, the servers'
	// CPUs included.
	clients := runtime.NumCPU() + len(serverCPUs)
	sup := newSupervisor(binDir, outDir, serverCPUs)
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	// A signal cancels ctx, every in-flight request fails, the run
	// unwinds through its deferred stops; killAll is the backstop for
	// children a panic or early return left behind.
	defer sup.killAll()

	env := envStamp(clients, serverCPUs)
	fmt.Println(env)
	report := &results{Env: env}
	code := 0
	for _, w := range todo {
		rs := runSpec{w: w, seed: *seed, seconds: *seconds, clients: clients, setups: setupsPerRun}
		line, err := runOne(ctx, sup, report, spec, rs, *trace == 1, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !line.Correct {
			code = 1
		}
		if err := report.write(filepath.Join(outDir, "results.json")); err != nil {
			return fatal(err)
		}
		out, err := json.Marshal(line)
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(out))
	}
	return code
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 1
}

// resultLine is the contract's last stdout line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one printed metric, also kept in results.json.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
}

type results struct {
	Env  string `json:"env"`
	Rows []row  `json:"rows"`
}

func (r *results) add(workload, metric string, value float64, unit string) {
	r.Rows = append(r.Rows, row{workload, metric, value, unit})
	fmt.Printf("%s %s %.6g %s\n", workload, metric, value, unit)
}

func (r *results) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne runs one workload in one mode and returns its result line.
// Declared metrics and printed metrics must match exactly: a metric the
// spec names and the run did not produce (or the reverse) is an error,
// not a silent gap.
func runOne(ctx context.Context, sup *supervisor, report *results, spec *benchSpec, rs runSpec, traced bool, outDir string) (*resultLine, error) {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
		// The process run behind a traced pass only supplies the
		// untraced op latency the stage sum is checked against.
		rs.setups, rs.noTail = 1, true
		rs.seconds = math.Min(rs.seconds, tracedProcessSeconds)
	}
	in, err := buildInputs(rs.w, rs.seed, rs.clients)
	if err != nil {
		return nil, err
	}
	res, err := runProcess(ctx, sup, rs, in)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("interrupted: %w", err) // no result line for half a window
	}
	name := rs.w.name
	fmt.Printf("%s stream_hash %016x\n", name, in.streamHash)
	fmt.Printf("%s op %s; closed loop, %d client goroutines, %d latency samples\n", name, rs.w.opUnit, rs.clients, res.samples)
	values := res.endToEnd
	if traced {
		if values, err = tracePass(ctx, rs, in, res, outDir); err != nil {
			return nil, err
		}
	}
	line := &resultLine{
		Correct:   res.correct(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(declared)),
	}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		report.add(name, m.Name, v, m.Unit)
		line.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if len(values) != len(declared) {
		return nil, fmt.Errorf("run produced %d metrics, spec declares %d", len(values), len(declared))
	}
	if !traced {
		report.add(name, "fail_ratio", float64(res.failed)/float64(res.attempted), "ratio")
	}
	for _, n := range res.notes {
		fmt.Printf("%s %s\n", name, n)
	}
	for _, e := range res.errs {
		fmt.Printf("%s FAILED %s\n", name, e)
	}
	return line, nil
}

// envStamp describes where the numbers were taken.
func envStamp(clients int, serverCPUs []int) string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	// Children size GOMAXPROCS from the CPUs they are bound to, unless
	// the environment overrides it for everyone.
	childProcs := os.Getenv("GOMAXPROCS")
	if childProcs == "" {
		childProcs = fmt.Sprint(runtime.NumCPU())
		if len(serverCPUs) > 0 {
			childProcs = fmt.Sprint(len(serverCPUs))
		}
	}
	return fmt.Sprintf("env commit=%s go=%s nproc=%d gomaxprocs=%d child_gomaxprocs=%s server_cpus=%v clients=%d kernel=%s",
		commit, runtime.Version(), runtime.NumCPU()+len(serverCPUs), runtime.GOMAXPROCS(0), childProcs, serverCPUs, clients, kernel)
}
