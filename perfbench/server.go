package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// server is one `ccsd -serve` process with default flags, listening on
// a loopback port the kernel picks.
type server struct {
	cmd  *exec.Cmd
	addr string
	// gcs counts the "gc N @..." lines GODEBUG=gctrace=1 prints on the
	// server's stderr (zero unless started with gctrace).
	gcs     atomic.Int64
	readers sync.WaitGroup
}

// startServer spawns ccsd with GOMAXPROCS procs and returns once it
// printed its "serving solves on ADDR" line. With gctrace the server
// runs under GODEBUG=gctrace=1 and its GC cycles are counted.
func startServer(bin string, gctrace bool, procs int) (*server, error) {
	cmd := exec.Command(bin, "-serve", "-listen", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The server dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ccsd: %w", err)
	}
	s := &server{cmd: cmd}
	s.readers.Add(1)
	go func() {
		defer s.readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "gc ") {
				s.gcs.Add(1)
			}
		}
	}()
	ready := make(chan string, 1)
	s.readers.Add(1)
	go func() {
		defer s.readers.Done()
		defer close(ready)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "serving solves on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				ready <- addr
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	addr, ok := <-ready
	if !ok {
		s.kill()
		return nil, errors.New("ccsd exited before printing its listen address")
	}
	s.addr = addr
	return s, nil
}

// stop interrupts the server (its graceful drain path) and waits for it;
// a server that does not exit within ten seconds is killed.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() {
		s.readers.Wait()
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("ccsd did not exit within 10s of SIGINT; killed")
	}
}

// kill ends the server without the graceful path.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	s.readers.Wait()
	_ = s.cmd.Wait()
}

// cpuTime is the server's CPU time so far: the sum over its threads of
// the nanosecond run time in /proc/PID/task/TID/schedstat.
func (s *server) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since ReadDir
		}
		f, _, _ := strings.Cut(string(data), " ")
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat of task %s: %w", t.Name(), err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakRSSMB is the server's peak resident set (VmHWM), MiB.
func (s *server) peakRSSMB() (float64, error) {
	return peakRSSMB(s.cmd.Process.Pid)
}

// peakRSSMB reads VmHWM of a process ("self" for this one), MiB.
func peakRSSMB(pid any) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%v/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line")
}

// client is one closed-loop connection: each request waits for the
// previous reply.
type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 1<<20)}, nil
}

// roundTrip writes one request line and returns the reply line, which
// aliases the read buffer until the next call.
func (c *client) roundTrip(line []byte) ([]byte, error) {
	if _, err := c.conn.Write(line); err != nil {
		return nil, err
	}
	return c.br.ReadSlice('\n')
}

func (c *client) close() { _ = c.conn.Close() }

// serveRun is the process-level state of one serve-workload setup. The
// client and the server run on one CPU (see pinCPU), with GOMAXPROCS 1
// each; close undoes the client's pinning.
type serveRun struct {
	srv *server
	cl  *client

	closeOnce sync.Once
	closeErr  error
}

// close hangs up, stops the server and unpins the client; later calls
// return the first call's result.
func (r *serveRun) close() error {
	r.closeOnce.Do(func() {
		r.cl.close()
		r.closeErr = errors.Join(r.srv.stop(), unpinSelf())
	})
	return r.closeErr
}

// setupServe pins the client, spawns a server on the same CPU, connects,
// and runs prime on the new connection; the returned duration covers the
// spawn, the connect and prime.
func setupServe(bin string, gctrace bool, prime func(*client) error) (*serveRun, time.Duration, error) {
	if err := pinSelf(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	srv, err := startServer(bin, gctrace, 1)
	if err == nil {
		// The child inherits the mask at fork; pin its threads anyway in
		// case the fork ran on a thread the client pinned late.
		if err = pinTasks(srv.cmd.Process.Pid); err != nil {
			srv.kill()
		}
	}
	if err != nil {
		return nil, 0, errors.Join(err, unpinSelf())
	}
	r := &serveRun{srv: srv}
	if r.cl, err = dial(srv.addr); err == nil {
		err = prime(r.cl)
	}
	if err != nil {
		if r.cl != nil {
			r.cl.close()
		}
		srv.kill()
		return nil, 0, errors.Join(err, unpinSelf())
	}
	return r, time.Since(start), nil
}

// A run sets the system up setupsBefore times before its timed window,
// measuring with the last, and setupsAfter times after it; setup_s is
// the median of all of them. The host's other tenants load it in bursts
// of seconds, so set-ups spread over the whole run see the host much as
// the window does, where set-ups made back to back can all fall into one
// burst.
const setupsBefore, setupsAfter = 5, 6

// repeatedSetup sets up n times, tearing down all but the last, and
// returns the last run with every set-up time.
func repeatedSetup(bin string, prime func(*client) error, n int) (*serveRun, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		r, d, err := setupServe(bin, false, prime)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if i == n-1 {
			return r, times, nil
		}
		if err := r.close(); err != nil {
			return nil, nil, err
		}
	}
}

// finishSetups sets up setupsAfter more times once the measured run is
// closed and records setup_s, the median over those and before.
func finishSetups(rep *report, bin string, prime func(*client) error, before []float64) error {
	r, after, err := repeatedSetup(bin, prime, setupsAfter)
	if err != nil {
		return err
	}
	if err := r.close(); err != nil {
		return err
	}
	rep.metrics.set("setup_s", median(append(before, after...)), "s")
	return nil
}

// pinCPU is the CPU every workload runs on. A serve request hands over
// between the client and the server; with both on one CPU it hands over
// within that CPU and never waits for a halted one, and the server's GC
// shares the CPU with its mutator instead of contending with the client.
// A shard round waits for its slowest cell; on one CPU it no longer
// waits for a second vCPU another tenant is using. Either way the
// latency stops following the host's load on the other CPU.
func pinCPU() int { return runtime.NumCPU() - 1 }

// pinSelf pins every thread of this process to pinCPU and drops
// GOMAXPROCS to 1; threads created later inherit the mask.
func pinSelf() error {
	runtime.GOMAXPROCS(1)
	return pinTasks(os.Getpid())
}

// unpinSelf lets this process run on every CPU again.
func unpinSelf() error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	return setTasksAffinity(os.Getpid(), allCPUs())
}

func pinTasks(pid int) error {
	var mask cpuMask
	mask.set(pinCPU())
	return setTasksAffinity(pid, mask)
}

// cpuMask is a cpu_set_t for sched_setaffinity.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int) { m[cpu/64] |= 1 << (cpu % 64) }

func allCPUs() cpuMask {
	var m cpuMask
	for c := 0; c < runtime.NumCPU(); c++ {
		m.set(c)
	}
	return m
}

// setTasksAffinity applies mask to every thread of process pid, passing
// again until no new thread appeared meanwhile.
func setTasksAffinity(pid int, mask cpuMask) error {
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			fresh = true
			done[tid] = true
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread exited
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
		if !fresh {
			return nil
		}
	}
}
