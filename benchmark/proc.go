package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The system under test always runs as real child processes (the
// binaries cmd/hyrec-server and cmd/hyrec-node build), so their cost
// can be read from /proc separately from the generator's.

const (
	readyTimeout = 15 * time.Second
	stopGrace    = 3 * time.Second
)

// supervisor owns every child the benchmark starts, so one call kills
// them all on exit or SIGINT.
type supervisor struct {
	binDir string // holds hyrec-server and hyrec-node
	outDir string // receives child logs
	cpus   []int  // CPUs children are bound to (nil = inherit)

	mu   sync.Mutex
	live map[*child]struct{}
}

func newSupervisor(binDir, outDir string, cpus []int) *supervisor {
	return &supervisor{binDir: binDir, outDir: outDir, cpus: cpus, live: make(map[*child]struct{})}
}

// child is one running server process in its own process group.
type child struct {
	name   string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once Wait has returned
}

// start launches bin (a name under binDir) with its output appended to
// outDir/<name>.log.
func (s *supervisor) start(name, bin string, args ...string) (*child, error) {
	logf, err := os.OpenFile(filepath.Join(s.outDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logf, "--- %s %v\n", bin, args)
	cmd := exec.Command(filepath.Join(s.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group: a signal to -pgid reaches the child and anything
	// it might fork, and a terminal's Ctrl-C reaches only the generator,
	// which then stops the children in order.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := startOn(s.cpus, cmd.Start); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{name: name, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: any exit before stop() fails the run
		close(c.exited)
	}()
	s.mu.Lock()
	s.live[c] = struct{}{}
	s.mu.Unlock()
	return c, nil
}

func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// stop terminates c's process group and returns once it has exited.
func (s *supervisor) stop(c *child) {
	pgid := -c.cmd.Process.Pid
	_ = syscall.Kill(pgid, syscall.SIGTERM) // ESRCH when already gone
	select {
	case <-c.exited:
	case <-time.After(stopGrace):
		_ = syscall.Kill(pgid, syscall.SIGKILL)
		<-c.exited
	}
	c.log.Close()
	s.mu.Lock()
	delete(s.live, c)
	s.mu.Unlock()
}

// killAll is the exit/SIGINT path: no grace, every group dies now.
func (s *supervisor) killAll() {
	s.mu.Lock()
	cs := make([]*child, 0, len(s.live))
	for c := range s.live {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, c := range cs {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
		<-c.exited
	}
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; a lost race surfaces as a failed
// readiness check and the boot is retried.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitHealthy polls base/healthz until it answers 200, the child dies,
// or readyTimeout passes.
func waitHealthy(ctx context.Context, base string, c *child) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before becoming ready (see its log)", c.name)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready on %s within %s", c.name, base, readyTimeout)
		case <-tick.C:
		}
	}
}

// deployment is one booted system under test.
type deployment struct {
	sup       *supervisor
	children  []*child
	baseURL   string // where the generator sends its traffic
	frameAddr string // framed listener beside baseURL ("" = none)
	verifyURL string // where correctness reads go (the second node, when there is one)
}

func (d *deployment) pids() []int {
	pids := make([]int, len(d.children))
	for i, c := range d.children {
		pids[i] = c.cmd.Process.Pid
	}
	return pids
}

func (d *deployment) checkAlive() error {
	for _, c := range d.children {
		if !c.alive() {
			return fmt.Errorf("child %s died during the run (see its log)", c.name)
		}
	}
	return nil
}

func (d *deployment) stop() {
	for _, c := range d.children {
		d.sup.stop(c)
	}
	d.children = nil
}

// bootServer starts one hyrec-server child.
func (s *supervisor) bootServer(ctx context.Context, framed bool, extra ...string) (*deployment, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &deployment{sup: s, baseURL: "http://" + addr}
	args := []string{"-addr", addr, "-rotate", "0", "-k", strconv.Itoa(knnK), "-r", strconv.Itoa(recR)}
	if framed {
		if d.frameAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-frame-addr", d.frameAddr)
	}
	d.verifyURL = d.baseURL
	c, err := s.start("hyrec-server", "hyrec-server", append(args, extra...)...)
	if err != nil {
		return nil, err
	}
	d.children = []*child{c}
	if err := waitHealthy(ctx, d.baseURL, c); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// bootNodes starts a two-node hyrec-node deployment with framed peers.
// The generator talks to node 1 only; correctness reads go through
// node 2, so they cross the proxy hop the other way.
func (s *supervisor) bootNodes(ctx context.Context) (*deployment, error) {
	var httpAddr, frameAddr [2]string
	for i := range httpAddr {
		var err error
		if httpAddr[i], err = freeAddr(); err != nil {
			return nil, err
		}
		if frameAddr[i], err = freeAddr(); err != nil {
			return nil, err
		}
	}
	peers := fmt.Sprintf("n1=http://%s|%s,n2=http://%s|%s", httpAddr[0], frameAddr[0], httpAddr[1], frameAddr[1])
	d := &deployment{
		sup:       s,
		baseURL:   "http://" + httpAddr[0],
		frameAddr: frameAddr[0],
		verifyURL: "http://" + httpAddr[1],
	}
	for i := range httpAddr {
		id := fmt.Sprintf("n%d", i+1)
		c, err := s.start("hyrec-node-"+id, "hyrec-node",
			"-id", id, "-addr", httpAddr[i], "-frame-addr", frameAddr[i], "-peers", peers,
			"-partitions", "8", "-replicate-every", "50ms", "-anti-entropy", "-1s",
			"-k", strconv.Itoa(knnK), "-r", strconv.Itoa(recR))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.children = append(d.children, c)
	}
	for i, c := range d.children {
		if err := waitHealthy(ctx, "http://"+httpAddr[i], c); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// bootRetry absorbs the free-port race: a boot that fails is retried
// on fresh ports.
func bootRetry(boot func() (*deployment, error)) (*deployment, error) {
	var errs []error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := boot()
		if err == nil {
			return d, nil
		}
		errs = append(errs, err)
	}
	return nil, errors.Join(errs...)
}
