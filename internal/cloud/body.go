package cloud

import (
	"io"
	"sync"
	"sync/atomic"
)

// Body is a /predict_proba body read into a pooled buffer. It is
// reference-counted: ReadBody returns it holding one reference, every
// further holder takes its own with Retain, and each holder calls
// Release once when it is done. The last Release returns the buffer to
// its pool, so the bytes must not be read after the holder's own
// Release. Releasing more references than were taken panics.
//
// Buffers come in power-of-two sizes from minBodyBuf to maxBodyBuf, one
// pool per size. A body grows by moving to the next size up, so it
// never holds a buffer larger than max(2×len, minBodyBuf); a body that
// outgrows maxBodyBuf is held in a buffer of its own, doubled as it
// grows under the same bound, and left to the GC.
type Body struct {
	buf   []byte
	class int // index into bodyPools; unpooled when >= numBodyClasses
	refs  atomic.Int32
}

// The pooled buffer sizes. They are bounds on retention, not tuning: a
// queued body pins at most twice its length, or one minBodyBuf.
const (
	minBodyBuf     = 4 << 10
	maxBodyBuf     = 4 << 20
	numBodyClasses = 11 // minBodyBuf << (numBodyClasses-1) == maxBodyBuf
)

var bodyPools [numBodyClasses]sync.Pool

// heldRefs counts the references taken and not yet released, across
// every Body in the process.
var heldRefs atomic.Int64

// HeldBodyRefs reports how many Body references are held process-wide:
// taken by ReadBody or Retain and not yet released. A leak check reads
// it before and after the code under test.
func HeldBodyRefs() int64 { return heldRefs.Load() }

// getBody returns an empty pooled body of size class c.
func getBody(c int) *Body {
	if b, ok := bodyPools[c].Get().(*Body); ok {
		return b
	}
	return &Body{buf: make([]byte, 0, minBodyBuf<<c), class: c}
}

// recycle hands b's buffer back: to its pool when pooled, else to the
// GC.
func (b *Body) recycle() {
	if b.class >= numBodyClasses {
		b.buf = nil
		return
	}
	b.buf = b.buf[:0]
	bodyPools[b.class].Put(b)
}

// grow moves b's bytes into a buffer twice its size and recycles b.
func (b *Body) grow() *Body {
	var nb *Body
	if c := b.class + 1; c < numBodyClasses {
		nb = getBody(c)
		nb.buf = append(nb.buf, b.buf...)
	} else {
		nb = &Body{buf: make([]byte, len(b.buf), 2*cap(b.buf)), class: numBodyClasses}
		copy(nb.buf, b.buf)
	}
	b.recycle()
	return nb
}

// ReadBody reads r to EOF into a pooled Body holding one reference.
// The buffer grows only as bytes arrive, so a declared Content-Length
// never sizes it. Like io.ReadAll it returns the bytes read so far with
// any error other than io.EOF; the caller releases the body either way.
func ReadBody(r io.Reader) (*Body, error) {
	b := getBody(0)
	var err error
	for {
		if len(b.buf) == cap(b.buf) {
			b = b.grow()
		}
		var n int
		n, err = r.Read(b.buf[len(b.buf):cap(b.buf)])
		b.buf = b.buf[:len(b.buf)+n]
		if err != nil {
			break
		}
	}
	if err == io.EOF {
		err = nil
	}
	b.refs.Store(1)
	heldRefs.Add(1)
	return b, err
}

// Bytes returns the body. It is valid until the caller's Release.
func (b *Body) Bytes() []byte { return b.buf }

// Retain takes one more reference for a new holder. Only a holder may
// call it: a body whose last reference is gone may already be reused.
func (b *Body) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("cloud: Retain of a released Body")
	}
	heldRefs.Add(1)
}

// Release drops the caller's reference; the last one recycles the
// buffer.
func (b *Body) Release() {
	n := b.refs.Add(-1)
	if n < 0 {
		panic("cloud: Body released more times than retained")
	}
	heldRefs.Add(-1)
	if n == 0 {
		b.recycle()
	}
}
