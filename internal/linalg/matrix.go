// Package linalg provides the small dense linear-algebra substrate used by
// the forecasting models: matrices, one-sided Jacobi SVD (for singular
// spectrum analysis), and least-squares/ridge solvers (for AR fitting and the
// additive model).
//
// The implementation favours clarity and numerical robustness over raw speed;
// the matrices involved in Seagull's per-server models are tiny (a few
// hundred rows at most).
//
// Concurrency: matrices and scratch types (RidgeScratch, SVD scratch) are
// plain buffers with no internal locking — share nothing across goroutines.
// Equivalence: the *Into/*Scratch fast paths are pinned against the naive
// implementations (fastpath_test.go: exact bit-equality where the
// computation is reordered-free, ≤1e-9 where accumulation order changes);
// the randomized SVD is deterministic per seed.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Common errors.
var (
	ErrShape    = errors.New("linalg: shape mismatch")
	ErrSingular = errors.New("linalg: singular system")
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must be equally long.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(r), c)
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m × b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d × %dx%d", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range rowB {
				rowOut[j] += a * bv
			}
		}
	}
	return out, nil
}

// MulVec returns m × v for a column vector v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("%w: %dx%d × vec(%d)", ErrShape, m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Dot returns the inner product of two vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// MulTransposedInto computes dst = AᵀA without materializing Aᵀ. dst must be
// Cols×Cols; its contents are overwritten. Only the upper triangle is
// accumulated (G is symmetric) and mirrored afterwards.
func MulTransposedInto(dst *Matrix, a *Matrix) error {
	n := a.Cols
	if dst.Rows != n || dst.Cols != n {
		return fmt.Errorf("%w: dst is %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, n, n)
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*n : (i+1)*n]
		for p := 0; p < n; p++ {
			rp := row[p]
			if rp == 0 {
				continue
			}
			drow := dst.Data[p*n+p : p*n+n]
			rq := row[p:n]
			for q, v := range rq {
				drow[q] += rp * v
			}
		}
	}
	for p := 0; p < n; p++ {
		for q := 0; q < p; q++ {
			dst.Data[p*n+q] = dst.Data[q*n+p]
		}
	}
	return nil
}

// RidgeScratch holds the buffers SolveRidgeInto needs so repeated solves of
// similarly-sized systems (the ARIMA candidate grid, the additive model) do
// zero intermediate allocations. The zero value is ready to use; buffers grow
// on demand and are retained across calls.
type RidgeScratch struct {
	g   Matrix
	buf []float64 // backing storage for g
	rhs []float64
}

// grab sizes the scratch for an n-coefficient system and returns the zeroed
// Gram matrix and right-hand side.
func (s *RidgeScratch) grab(n int) (*Matrix, []float64) {
	if cap(s.buf) < n*n {
		s.buf = make([]float64, n*n)
	}
	if cap(s.rhs) < n {
		s.rhs = make([]float64, n)
	}
	s.g = Matrix{Rows: n, Cols: n, Data: s.buf[:n*n]}
	rhs := s.rhs[:n]
	for i := range s.g.Data {
		s.g.Data[i] = 0
	}
	for i := range rhs {
		rhs[i] = 0
	}
	return &s.g, rhs
}

// SolveRidge returns x minimizing ‖Ax − b‖₂² + λ‖x‖₂² (λ ≥ 0).
func SolveRidge(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	var s RidgeScratch
	return SolveRidgeInto(a, b, lambda, &s)
}

// SolveRidgeInto is SolveRidge with caller-provided scratch: the normal
// equations G = AᵀA + λI, rhs = Aᵀb are accumulated into s and solved in
// place, so the call does no intermediate matrix allocations. The returned
// solution aliases s and is valid until the next call with the same scratch;
// copy it if it must outlive that.
func SolveRidgeInto(a *Matrix, b []float64, lambda float64, s *RidgeScratch) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("%w: A is %dx%d, b has %d", ErrShape, a.Rows, a.Cols, len(b))
	}
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge penalty %v", lambda)
	}
	n := a.Cols
	g, rhs := s.grab(n)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*n : (i+1)*n]
		bi := b[i]
		for p := 0; p < n; p++ {
			rp := row[p]
			if rp == 0 {
				continue
			}
			rhs[p] += rp * bi
			// Accumulate the upper-triangle run g[p][p..n) against row[p..n);
			// subslicing here lets the compiler keep the bases in registers
			// even though g is scratch-backed rather than freshly allocated.
			grow := g.Data[p*n+p : p*n+n]
			rq := row[p:n]
			for q, v := range rq {
				grow[q] += rp * v
			}
		}
	}
	for p := 0; p < n; p++ {
		g.Data[p*n+p] += lambda
		for q := 0; q < p; q++ {
			g.Data[p*n+q] = g.Data[q*n+p]
		}
	}
	if err := CholeskySolveInPlace(g, rhs); err != nil {
		return nil, err
	}
	return rhs, nil
}

// CholeskySolve solves the symmetric positive-definite system Gx = b without
// modifying its inputs.
func CholeskySolve(g *Matrix, b []float64) ([]float64, error) {
	n := g.Rows
	if g.Cols != n || len(b) != n {
		return nil, fmt.Errorf("%w: G is %dx%d, b has %d", ErrShape, g.Rows, g.Cols, len(b))
	}
	work := g.Clone()
	x := make([]float64, n)
	copy(x, b)
	if err := CholeskySolveInPlace(work, x); err != nil {
		return nil, err
	}
	return x, nil
}

// CholeskySolveInPlace solves the symmetric positive-definite system Gx = b,
// overwriting g's lower triangle with its Cholesky factor L and b with the
// solution x. It allocates nothing, which is what the small normal-equations
// systems on the ARIMA/additive hot path need.
func CholeskySolveInPlace(g *Matrix, b []float64) error {
	n := g.Rows
	if g.Cols != n || len(b) != n {
		return fmt.Errorf("%w: G is %dx%d, b has %d", ErrShape, g.Rows, g.Cols, len(b))
	}
	// Decompose G = LLᵀ, writing L over g's lower triangle. Element (i,j) of
	// the input is only read before iteration (i,j) completes, so the
	// factorization can proceed in place.
	d := g.Data
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := d[i*n+j]
			for k := 0; k < j; k++ {
				sum -= d[i*n+k] * d[j*n+k]
			}
			if i == j {
				if sum <= 1e-14 {
					return ErrSingular
				}
				d[i*n+i] = math.Sqrt(sum)
			} else {
				d[i*n+j] = sum / d[j*n+j]
			}
		}
	}
	// Forward solve Ly = b (y over b).
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= d[i*n+k] * b[k]
		}
		b[i] = sum / d[i*n+i]
	}
	// Back solve Lᵀx = y (x over b).
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= d[k*n+i] * b[k]
		}
		b[i] = sum / d[i*n+i]
	}
	return nil
}
