package main

// Child-process hygiene. Every server the benchmark starts belongs to a
// procGroup, which stops and reaps all of them on every exit path: a
// normal return, an error, a panic (guard) and SIGINT/SIGTERM
// (stopOnSignal). Children also carry a parent-death signal, so even a
// SIGKILLed benchmark leaves no server behind. Ports come from the
// kernel's ephemeral range: an orphan from an earlier run can never
// answer for a server of this one.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// child is one started process.
type child struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// exited reports whether the process has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// procGroup owns the processes a run starts.
type procGroup struct {
	mu    sync.Mutex
	procs []*child
}

// start launches path with args, its stdout and stderr appended to
// logPath.
func (g *procGroup) start(name, path, logPath string, args ...string) (*child, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening %s log: %w", name, err)
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	g.mu.Lock()
	g.procs = append(g.procs, c)
	g.mu.Unlock()
	return c, nil
}

// stop ends one child: SIGTERM (the servers drain and exit), then
// SIGKILL after grace, and returns once the process is reaped.
func (c *child) stop(grace time.Duration) {
	if c.exited() {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.done:
		return
	case <-time.After(grace):
	}
	_ = c.cmd.Process.Kill()
	<-c.done
}

// stopAll stops every child the group started, in parallel, and
// returns once all are reaped.
func (g *procGroup) stopAll() {
	g.mu.Lock()
	procs := g.procs
	g.procs = nil
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range procs {
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			c.stop(5 * time.Second)
		}(c)
	}
	wg.Wait()
}

// guard runs fn and stops every child before returning — including
// when fn panics, in which case the panic is re-raised once the
// children are reaped.
func (g *procGroup) guard(fn func() error) error {
	defer func() {
		if r := recover(); r != nil {
			g.stopAll()
			panic(r)
		}
	}()
	err := fn()
	g.stopAll()
	return err
}

// stopOnSignal stops every child and calls exit(130) on SIGINT or
// SIGTERM. The returned function detaches the handler.
func (g *procGroup) stopOnSignal(exit func(code int)) (detach func()) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "bench: %v: stopping children\n", sig)
			g.stopAll()
			exit(130)
		case <-quit:
		}
	}()
	return func() {
		signal.Stop(sigs)
		close(quit)
		wg.Wait()
	}
}

// freeAddr returns a loopback address on a port the kernel just handed
// out as free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("releasing %s: %w", addr, err)
	}
	return addr, nil
}

// waitHealthy polls url until it answers 200. It fails as soon as c
// exits (a server that could not bind must not be mistaken for one
// that is slow to start) or after timeout.
func waitHealthy(c *child, url string, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		if c.exited() {
			return fmt.Errorf("%s exited before %s answered (%v); see %s", c.name, url, c.err, c.log)
		}
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy at %s after %v; see %s", c.name, url, timeout, c.log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
