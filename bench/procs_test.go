package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// The test binary doubles as the child process: with BENCH_HELPER set it
// plays a server instead of running the tests.
func TestMain(m *testing.M) {
	switch os.Getenv("BENCH_HELPER") {
	case "":
		os.Exit(m.Run())
	case "serve": // answer /healthz on $BENCH_ADDR until SIGTERM
		http.HandleFunc("/healthz", func(http.ResponseWriter, *http.Request) {})
		l, err := net.Listen("tcp", os.Getenv("BENCH_ADDR"))
		if err != nil {
			os.Exit(3)
		}
		go http.Serve(l, nil)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM)
		<-sig
		os.Exit(0)
	case "stubborn": // ignore SIGTERM
		signal.Ignore(syscall.SIGTERM)
		time.Sleep(time.Hour)
	case "exit":
		os.Exit(3)
	}
}

func startHelper(t *testing.T, g *procGroup, mode, addr string) *child {
	t.Helper()
	t.Setenv("BENCH_HELPER", mode)
	t.Setenv("BENCH_ADDR", addr)
	c, err := g.start(mode, os.Args[0], filepath.Join(t.TempDir(), mode+".log"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gone reports whether no process with c's pid exists any more: it was
// both stopped and reaped.
func gone(c *child) bool {
	return c.exited() && errors.Is(syscall.Kill(c.cmd.Process.Pid, 0), syscall.ESRCH)
}

func TestFreeAddrIsEphemeralAndBindable(t *testing.T) {
	a, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	b, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{a, b} {
		_, port, _ := net.SplitHostPort(addr)
		if port == "0" || port == "" {
			t.Fatalf("address %q has no port", addr)
		}
	}
	l, err := net.Listen("tcp", a)
	if err != nil {
		t.Fatalf("the returned address is not free: %v", err)
	}
	l.Close()
}

func TestStopAllStopsAndReapsEveryChild(t *testing.T) {
	g := &procGroup{}
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	srv := startHelper(t, g, "serve", addr)
	stubborn := startHelper(t, g, "stubborn", "")
	if err := waitHealthy(srv, "http://"+addr+"/healthz", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	g.stopAll()
	for _, c := range []*child{srv, stubborn} {
		if !gone(c) {
			t.Errorf("%s (pid %d) still exists after stopAll", c.name, c.cmd.Process.Pid)
		}
	}
}

func TestGuardStopsChildrenWhenItsBodyPanics(t *testing.T) {
	g := &procGroup{}
	var c *child
	func() {
		defer func() {
			if recover() == nil {
				t.Error("guard swallowed the panic")
			}
		}()
		g.guard(func() error {
			c = startHelper(t, g, "serve", "127.0.0.1:0")
			panic("boom")
		})
	}()
	if !gone(c) {
		t.Error("child survived a panic in the guarded body")
	}
}

func TestSignalStopsChildrenThenExits(t *testing.T) {
	g := &procGroup{}
	codes := make(chan int, 1)
	detach := g.stopOnSignal(func(code int) { codes <- code })
	c := startHelper(t, g, "serve", "127.0.0.1:0")
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codes:
		if code != 130 {
			t.Errorf("exit code %d, want 130", code)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("SIGINT did not stop the run")
	}
	detach()
	if !gone(c) {
		t.Error("child survived SIGINT")
	}
}

func TestWaitHealthyFailsFastWhenTheChildDies(t *testing.T) {
	g := &procGroup{}
	defer g.stopAll()
	c := startHelper(t, g, "exit", "")
	start := time.Now()
	if err := waitHealthy(c, "http://127.0.0.1:1/healthz", 30*time.Second); err == nil {
		t.Fatal("waitHealthy succeeded for a dead child")
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("waitHealthy took %v to notice the child exited", time.Since(start))
	}
}
