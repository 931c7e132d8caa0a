package cloud

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"blackboxval/internal/linalg"
)

// A body holds its bytes in a buffer of at most twice its length, or
// one minBodyBuf, whatever the reads' sizes; bodies past maxBodyBuf
// keep the same bound in a buffer of their own.
func TestReadBodyBoundedBuffer(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, minBodyBuf - 1, minBodyBuf, minBodyBuf + 1, 70000, maxBodyBuf, maxBodyBuf + 1, 2*maxBodyBuf + 3} {
		src := bytes.Repeat([]byte{'x'}, n)
		readers := []io.Reader{bytes.NewReader(src)}
		if n <= 70000 {
			readers = append(readers, &oneByteReader{src})
		}
		for _, r := range readers {
			body, err := ReadBody(r)
			got := body.Bytes()
			if err != nil || !bytes.Equal(got, src) || got == nil || cap(got) > max(2*n, minBodyBuf) {
				t.Fatalf("n=%d: len %d cap %d err %v", n, len(got), cap(got), err)
			}
			body.Release()
		}
	}
	// Bodies held at once never share a buffer.
	a, _ := ReadBody(strings.NewReader("first"))
	b, _ := ReadBody(strings.NewReader("second"))
	if string(a.Bytes()) != "first" || string(b.Bytes()) != "second" {
		t.Fatalf("bodies alias: %q %q", a.Bytes(), b.Bytes())
	}
	a.Release()
	b.Release()
}

// Every reference counts once in HeldBodyRefs, and releasing more than
// were taken, or retaining a released body, panics.
func TestBodyReferenceCounting(t *testing.T) {
	base := HeldBodyRefs()
	body, err := ReadBody(strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body.Retain()
	if got := HeldBodyRefs() - base; got != 2 {
		t.Fatalf("held %d references, want 2", got)
	}
	body.Release()
	body.Release()
	if got := HeldBodyRefs() - base; got != 0 {
		t.Fatalf("held %d references after releasing both, want 0", got)
	}
	for _, misuse := range []struct {
		name string
		call func(*Body)
	}{{"Release", (*Body).Release}, {"Retain", (*Body).Retain}} {
		body, _ := ReadBody(strings.NewReader("{}"))
		body.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released body did not panic", misuse.name)
				}
			}()
			misuse.call(body)
		}()
	}
	if got := HeldBodyRefs() - base; got != 0 {
		t.Fatalf("a refused call changed the count of held references by %d", got)
	}
}

// One Client serves several goroutines at once: the parallel
// meta-dataset builder shares the remote model across its workers.
func TestClientConcurrentPredict(t *testing.T) {
	srv := httptest.NewServer(NewServer(stubModel{proba: linalg.NewMatrix(4, 3)}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	ds := randomFrame(rand.New(rand.NewSource(3)), 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				proba, err := c.PredictCtx(context.Background(), ds)
				if err != nil || proba.Cols != 3 || c.NumClasses() != 3 {
					t.Errorf("predict: %v (classes %d)", err, c.NumClasses())
					return
				}
			}
		}()
	}
	wg.Wait()
}
