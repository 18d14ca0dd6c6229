package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark leaves on disk apart from
// benchmark/out: the server binary and per-run data directories. It is
// inside the checkout (the driver's contract) and git-ignored.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the module root, so
// `go run ./benchmark` works from anywhere inside the checkout.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module ipa\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the ipa module (no go.mod declaring `module ipa` above the working directory)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/ipa — the real program, no benchmark hooks —
// into buildDir and returns the binary's path. The go command relinks
// only when a source changed, so repeated runs pay for one build.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "ipa")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ipa")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ipa: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one spawned `ipa serve`.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	// listening is how long spawn → "listening on" took.
	listening time.Duration

	waitOnce sync.Once
	waitErr  error
	readers  sync.WaitGroup  // the stdout and stderr pipe readers
	stderr   strings.Builder // read only after readers are done
}

// liveServers lets the signal handler and the watchdog kill whatever is
// running; a child must never outlive a failed benchmark.
var liveServers struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func killLiveServers() {
	liveServers.Lock()
	defer liveServers.Unlock()
	for p := range liveServers.procs {
		_ = p.cmd.Process.Kill() // already-exited is fine
	}
}

// spawnServer starts `ipa serve` on an ephemeral loopback port and waits
// for its "listening on" line. dataDir is empty for in-memory sites.
func spawnServer(bin string, sites int, dataDir string) (*serverProc, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-backend", "netrepl", "-app", appName, "-sites", strconv.Itoa(sites)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	p := &serverProc{cmd: exec.Command(bin, args...)}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	liveServers.Lock()
	if liveServers.procs == nil {
		liveServers.procs = map[*serverProc]struct{}{}
	}
	liveServers.procs[p] = struct{}{}
	liveServers.Unlock()

	p.readers.Add(2)
	go func() {
		defer p.readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.stderr.WriteString(sc.Text())
			p.stderr.WriteByte('\n')
		}
	}()

	// "ipa serve: listening on 127.0.0.1:41234 (netrepl backend, ...)"
	addrCh := make(chan string, 1) // one send: the parsed address, or "" at EOF
	go func() {
		defer p.readers.Done()
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrCh <- addr
				sent = true
			}
		}
		if !sent {
			addrCh <- ""
		}
	}()
	select {
	case addr := <-addrCh:
		if addr == "" {
			p.kill()
			return nil, fmt.Errorf("ipa serve exited before listening:\n%s", p.stderrText())
		}
		p.addr = addr
		p.listening = time.Since(start)
		return p, nil
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("ipa serve did not listen within 60s:\n%s", p.stderrText())
	}
}

func (p *serverProc) wait() error {
	p.waitOnce.Do(func() {
		p.readers.Wait() // Wait closes the pipes; read them out first
		p.waitErr = p.cmd.Wait()
		liveServers.Lock()
		delete(liveServers.procs, p)
		liveServers.Unlock()
	})
	return p.waitErr
}

// stderrText is what the child wrote to stderr; call it only after the
// child has been stopped or killed.
func (p *serverProc) stderrText() string {
	p.readers.Wait()
	return p.stderr.String()
}

// stop is the clean path: SIGTERM, and the drain must exit 0.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("ipa serve drain: %v\n%s", err, p.stderrText())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("ipa serve did not drain within 30s of SIGTERM; killed")
	}
}

// kill is the abort path (and serve-durable's crash): SIGKILL and reap.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	_ = p.wait()             // a killed child's status is not an error here
}

// cpuTicks reads the child's utime+stime from /proc/<pid>/stat, in clock
// ticks (USER_HZ, 100 on Linux).
func (p *serverProc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may contain
	// spaces; fields are counted from after its closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %q", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

const userHz = 100 // Linux USER_HZ; /proc times are in these ticks

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
