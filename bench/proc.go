package bench

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process.
type proc struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, set before done closes
}

func startProc(bin string, args []string, logPath string) (*proc, error) {
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// Children die with the harness even if it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = f.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		_ = f.Close() // the log is diagnostics only
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the process and waits for it.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.done
}

// stop sends SIGTERM and waits for a clean exit; after grace it kills.
func (p *proc) stop(grace time.Duration) error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	t := time.NewTimer(grace)
	defer t.Stop()
	select {
	case <-p.done:
		return p.err
	case <-t.C:
		p.kill()
		return fmt.Errorf("no exit %v after SIGTERM", grace)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// logTail is the end of the process's log, for error messages.
func (p *proc) logTail() string {
	data, _ := os.ReadFile(p.log) // diagnostics only
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// procSystem is the untraced deployment: the real sthistd, and sthproxy in
// front of it on proxied workloads.
type procSystem struct {
	bin, dir    string
	in          *inputs
	res         *Result
	nodeAddr    string
	proxyAddr   string
	node, proxy *proc
	nodeHWM     float64 // largest VmHWM over node incarnations, kB
	cpu         map[string][3]float64
}

func (s *procSystem) nodeURL() string { return "http://" + s.nodeAddr }

func (s *procSystem) url() string {
	if s.proxy != nil {
		return "http://" + s.proxyAddr
	}
	return s.nodeURL()
}

func (s *procSystem) nodeArgs() []string {
	return []string{
		"-addr", s.nodeAddr,
		"-table", s.in.table + "=" + s.in.binPath,
		"-data-dir", filepath.Join(s.dir, "data"),
		"-buckets", strconv.Itoa(buckets),
		"-seed", strconv.Itoa(clusterSeed),
		"-fsync", "always",
		"-checkpoint-interval", checkpointEvery,
		"-checkpoint-records", strconv.Itoa(checkpointRecords),
	}
}

// start launches the node, and the proxy on proxied workloads, from an
// empty data directory and returns the seconds from exec until every
// process answered /readyz with 200.
func (s *procSystem) start(ctx context.Context) (float64, error) {
	if err := os.RemoveAll(filepath.Join(s.dir, "data")); err != nil {
		return 0, err
	}
	var err error
	if s.nodeAddr == "" {
		if s.nodeAddr, err = freeAddr(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	if err := s.startNode(ctx); err != nil {
		return 0, err
	}
	if s.in.w.Proxy {
		if s.proxyAddr == "" {
			if s.proxyAddr, err = freeAddr(); err != nil {
				return 0, err
			}
		}
		p, err := startProc(filepath.Join(s.bin, "sthproxy"),
			[]string{"-addr", s.proxyAddr, "-target", s.nodeURL(), "-replicas", "1"},
			filepath.Join(s.dir, "sthproxy.log"))
		if err != nil {
			return 0, err
		}
		s.proxy = p
		if err := waitReady(ctx, p, "http://"+s.proxyAddr); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

func (s *procSystem) startNode(ctx context.Context) error {
	p, err := startProc(filepath.Join(s.bin, "sthistd"), s.nodeArgs(), filepath.Join(s.dir, "sthistd.log"))
	if err != nil {
		return err
	}
	s.node = p
	return waitReady(ctx, p, s.nodeURL())
}

// stop SIGTERMs the proxy, then the node, and returns their exit errors.
func (s *procSystem) stop() []error {
	var errs []error
	for _, p := range []*proc{s.proxy, s.node} {
		if p != nil {
			errs = append(errs, p.stop(30*time.Second))
		}
	}
	s.node, s.proxy = nil, nil
	return errs
}

// kill SIGKILLs whatever still runs; deferred on every path.
func (s *procSystem) kill() {
	for _, p := range []*proc{s.proxy, s.node} {
		if p != nil {
			p.kill()
		}
	}
}

func (s *procSystem) mark(phase string) {
	var t [3]float64
	if s.node != nil {
		t[0] = cpuSeconds(strconv.Itoa(s.node.pid()))
	}
	if s.proxy != nil {
		t[1] = cpuSeconds(strconv.Itoa(s.proxy.pid()))
	}
	t[2] = cpuSeconds("self")
	s.cpu[phase] = t
}

// cpuPerOp is the CPU each process spent per operation over the fixed and
// peak phases, in microseconds.
func (s *procSystem) cpuPerOp(ops int) [3]float64 {
	var out [3]float64
	for i := range out {
		d := s.cpu["fixed-end"][i] - s.cpu["fixed-start"][i] + s.cpu["peak-end"][i] - s.cpu["peak-start"][i]
		out[i] = d / float64(ops) * 1e6
	}
	return out
}

func (s *procSystem) noteHWM() {
	if s.node != nil {
		if kb := hwmKB(s.node.pid()); kb > s.nodeHWM {
			s.nodeHWM = kb
		}
	}
}

func (s *procSystem) crash(ctx context.Context, c *client, in *inputs, want []float64) (float64, int, error) {
	s.noteHWM()
	t0 := time.Now()
	s.node.kill()
	if err := s.startNode(ctx); err != nil {
		return 0, 0, fmt.Errorf("restarting after SIGKILL: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	c.close() // the pooled connections died with the old node
	got, err := c.probe(ctx, s.nodeURL(), in.pbody)
	if err != nil {
		return 0, 0, err
	}
	return recoverS, diffBits(values(got), want), nil
}

// runProcesses runs a workload against the real binaries and reports the
// end-to-end metrics plus process CPU.
func runProcesses(ctx context.Context, cfg Config, in *inputs, dir string) (*Result, error) {
	// The generator needs one processor: with more, the Go scheduler spins
	// idle ones on every wake-up and takes CPU from the servers it drives.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &Result{Workload: in.w.Name}
	s := &procSystem{bin: filepath.Join(cfg.Work, "bin"), dir: dir, in: in, res: res, cpu: map[string][3]float64{}}
	defer s.kill()
	var setups []float64
	for i := 0; i < cfg.SetupRepeats; i++ {
		if i > 0 {
			for _, err := range s.stop() {
				if err != nil {
					return nil, fmt.Errorf("stopping after set-up %d: %w", i, err)
				}
			}
		}
		d, err := s.start(ctx)
		if err != nil {
			return nil, s.explain(err)
		}
		setups = append(setups, d)
	}
	fmt.Fprintf(cfg.Log, "%s: set-up %.3fs (median of %d)\n", in.w.Name, median(setups), len(setups))

	c := newClient(nil)
	defer c.close()
	ph, err := drive(ctx, s, c, in, res, cfg)
	if err != nil {
		return nil, s.explain(err)
	}
	ph.endToEnd(res)
	res.set("setup_s", median(setups), "s", len(setups))
	s.noteHWM()
	rss := s.nodeHWM
	if s.proxy != nil {
		rss += hwmKB(s.proxy.pid())
	}
	res.set("rss_mb", rss/1024, "MB", 1)

	cpu := s.cpuPerOp(len(ph.fixed) + len(ph.peak))
	res.set("node.cpu_us_per_op", cpu[0], "us", 0)
	if in.w.Proxy {
		res.set("proxy.cpu_us_per_op", cpu[1], "us", 0)
	}
	res.set("gen.cpu_us_per_op", cpu[2], "us", 0)
	var late []float64
	for _, x := range ph.fixed {
		late = append(late, x.late*1e3)
	}
	res.set("gen.late_p99_ms", percentile(late, 0.99), "ms", len(late))

	var bad []string
	for _, err := range s.stop() {
		if err != nil {
			bad = append(bad, err.Error())
		}
	}
	res.check("clean_sigterm_exit", len(bad) == 0, strings.Join(bad, "; "))
	return res, nil
}

// explain adds the server logs to an error.
func (s *procSystem) explain(err error) error {
	for _, p := range []*proc{s.node, s.proxy} {
		if p != nil {
			err = fmt.Errorf("%w\n--- %s ---\n%s", err, filepath.Base(p.log), p.logTail())
		}
	}
	return err
}

// readyClient polls readiness without keep-alives, so a restarted process
// is never probed over a connection to its predecessor.
var readyClient = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// waitReady polls base/readyz every millisecond until it answers 200.
func waitReady(ctx context.Context, p *proc, base string) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if p.exited() {
			return fmt.Errorf("%s exited before it was ready: %v", filepath.Base(p.cmd.Path), p.err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := readyClient.Do(req); err == nil {
			_ = resp.Body.Close() // status is all that matters
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 2m", base)
		}
		sleepUntil(time.Now().Add(time.Millisecond))
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// cpuSeconds is the user plus system CPU time of /proc/<pid>.
func cpuSeconds(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	k, _ := strconv.ParseFloat(f[12], 64)
	return (u + k) / clockTicks
}

// hwmKB is the peak resident set size of a process, in kB.
func hwmKB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return v
		}
	}
	return 0
}
