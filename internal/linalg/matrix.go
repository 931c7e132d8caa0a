// Package linalg provides the dense linear algebra primitives used by the
// models in this repository: a row-major float64 matrix, parallel matrix
// multiplication, and the numerically stable reductions (softmax,
// log-sum-exp) needed for classifier training.
package linalg

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense, row-major matrix of float64 values. The zero value is
// an empty 0x0 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-initialized rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equally sized rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: got %d values, want %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into a new slice.
func (m *Matrix) Col(j int) []float64 {
	return m.AppendCol(make([]float64, 0, m.Rows), j)
}

// AppendCol appends column j to dst and returns the extended slice.
func (m *Matrix) AppendCol(dst []float64, j int) []float64 {
	for i := 0; i < m.Rows; i++ {
		dst = append(dst, m.Data[i*m.Cols+j])
	}
	return dst
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SelectRows returns a new matrix with the given rows of m, in order.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := NewMatrix(len(idx), m.Cols)
	for k, i := range idx {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// MatMul computes a*b, parallelizing over row blocks of a.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	matMulInto(a, b, out)
	return out
}

func matMulInto(a, b, out *Matrix) {
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers <= 1 || a.Rows*a.Cols*b.Cols < 1<<16 {
		matMulRange(a, b, out, 0, a.Rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(a, b, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulRange computes out[lo:hi] = a[lo:hi]*b with an ikj loop order that
// streams through b row by row (cache friendly for row-major storage).
func matMulRange(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
}

// Transpose returns m^T.
func Transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// AddRowVector adds v to every row of m in place.
func AddRowVector(m *Matrix, v []float64) {
	if len(v) != m.Cols {
		panic("linalg: vector length does not match column count")
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j := range r {
			r[j] += v[j]
		}
	}
}

// Scale multiplies every element of m by s in place.
func Scale(m *Matrix, s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// SoftmaxRows applies the softmax function to each row of m in place,
// using the max-subtraction trick for numerical stability.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		max := r[0]
		for _, v := range r[1:] {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range r {
			e := math.Exp(v - max)
			r[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range r {
			r[j] *= inv
		}
	}
}

// LogSumExp returns log(sum(exp(x))) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	sum := 0.0
	for _, v := range x {
		sum += math.Exp(v - max)
	}
	return max + math.Log(sum)
}

// ArgmaxRow returns the index of the largest value in xs, breaking ties in
// favour of the lowest index.
func ArgmaxRow(xs []float64) int {
	best := 0
	for j, v := range xs[1:] {
		if v > xs[best] {
			best = j + 1
		}
	}
	return best
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot of unequal length vectors")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: axpy of unequal length vectors")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
