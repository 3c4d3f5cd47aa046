package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Errorf("At/Set broken: %+v", m.Data)
	}
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 0 {
		t.Error("Row must copy")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("FromRows At(1,0) = %v", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Error("ragged rows should error")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Error("empty FromRows should give 0x0")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("T = %+v", tr)
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 2)); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil || v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v err %v", v, err)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("wrong vector length should error")
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if !approx(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Error("Norm2 wrong")
	}
}

func TestSVDIdentity(t *testing.T) {
	id, _ := FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	sv, err := ComputeSVD(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sv.S {
		if !approx(s, 1, 1e-9) {
			t.Errorf("S[%d] = %v, want 1", i, s)
		}
	}
}

func TestSVDKnown(t *testing.T) {
	// A = [[3,0],[0,-2]] has singular values 3, 2.
	a, _ := FromRows([][]float64{{3, 0}, {0, -2}})
	sv, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sv.S[0], 3, 1e-9) || !approx(sv.S[1], 2, 1e-9) {
		t.Errorf("S = %v, want [3 2]", sv.S)
	}
}

func reconstruct(sv *SVD) *Matrix {
	m, k := sv.U.Rows, len(sv.S)
	n := sv.V.Rows
	out := NewMatrix(m, n)
	for r := 0; r < k; r++ {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += sv.S[r] * sv.U.At(i, r) * sv.V.At(j, r)
			}
		}
	}
	return out
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(8)
		n := 2 + rng.Intn(8)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64() * 10
		}
		sv, err := ComputeSVD(a)
		if err != nil {
			t.Fatal(err)
		}
		rec := reconstruct(sv)
		for i := range a.Data {
			if !approx(rec.Data[i], a.Data[i], 1e-6) {
				t.Fatalf("trial %d (%dx%d): reconstruction[%d] = %v, want %v",
					trial, m, n, i, rec.Data[i], a.Data[i])
			}
		}
		// Singular values descending and non-negative.
		for r := 1; r < len(sv.S); r++ {
			if sv.S[r] > sv.S[r-1]+1e-9 || sv.S[r] < -1e-12 {
				t.Fatalf("singular values not sorted/non-negative: %v", sv.S)
			}
		}
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(10, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	sv, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	ut, vt := sv.U.T(), sv.V.T()
	for p := 0; p < 4; p++ {
		for q := 0; q < 4; q++ {
			dot := Dot(ut.Row(p), ut.Row(q))
			want := 0.0
			if p == q {
				want = 1
			}
			if !approx(dot, want, 1e-8) {
				t.Errorf("UᵀU[%d,%d] = %v, want %v", p, q, dot, want)
			}
			dotV := Dot(vt.Row(p), vt.Row(q))
			if !approx(dotV, want, 1e-8) {
				t.Errorf("VᵀV[%d,%d] = %v, want %v", p, q, dotV, want)
			}
		}
	}
}

func TestSVDWideMatrix(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 0, 0, 2}, {0, 3, 0, 0}})
	sv, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	rec := reconstruct(sv)
	for i := range a.Data {
		if !approx(rec.Data[i], a.Data[i], 1e-8) {
			t.Fatalf("wide reconstruction mismatch at %d", i)
		}
	}
}

func TestSVDEmpty(t *testing.T) {
	if _, err := ComputeSVD(NewMatrix(0, 0)); err == nil {
		t.Error("empty SVD should error")
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Exactly determined: x = [2, -1].
	a, _ := FromRows([][]float64{{1, 1}, {1, -1}})
	x, err := SolveRidge(a, []float64{1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 2, 1e-9) || !approx(x[1], -1, 1e-9) {
		t.Errorf("x = %v, want [2 -1]", x)
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2t + 1 with noiseless samples.
	rows := [][]float64{}
	b := []float64{}
	for ti := 0; ti < 10; ti++ {
		rows = append(rows, []float64{float64(ti), 1})
		b = append(b, 2*float64(ti)+1)
	}
	a, _ := FromRows(rows)
	x, err := SolveRidge(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 2, 1e-8) || !approx(x[1], 1, 1e-8) {
		t.Errorf("fit = %v, want [2 1]", x)
	}
}

func TestSolveRidgeShrinks(t *testing.T) {
	rows := [][]float64{{1}, {1}, {1}}
	a, _ := FromRows(rows)
	b := []float64{3, 3, 3}
	x0, err := SolveRidge(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := SolveRidge(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !(x1[0] < x0[0]) {
		t.Errorf("ridge should shrink: λ=0 → %v, λ=10 → %v", x0[0], x1[0])
	}
	if _, err := SolveRidge(a, b, -1); err == nil {
		t.Error("negative lambda should error")
	}
	if _, err := SolveRidge(a, []float64{1}, 0); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestSolveSingular(t *testing.T) {
	// Two identical columns: rank deficient.
	a, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := SolveRidge(a, []float64{1, 2, 3}, 0); err == nil {
		t.Error("rank-deficient system should error without ridge")
	}
	// Ridge regularization rescues it.
	if _, err := SolveRidge(a, []float64{1, 2, 3}, 1e-3); err != nil {
		t.Errorf("ridge should solve rank-deficient system: %v", err)
	}
}

func TestCholeskySolveErrors(t *testing.T) {
	if _, err := CholeskySolve(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square should error")
	}
	neg, _ := FromRows([][]float64{{-1}})
	if _, err := CholeskySolve(neg, []float64{1}); err == nil {
		t.Error("negative-definite should error")
	}
}

// Property: the least-squares (λ = 0) residual is orthogonal to the column
// space.
func TestPropertyLeastSquaresOrthogonalResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		m := 4 + rng.Intn(10)
		n := 1 + rng.Intn(3)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveRidge(a, b, 0)
		if err != nil {
			continue // random degenerate case
		}
		ax, _ := a.MulVec(x)
		res := make([]float64, m)
		for i := range res {
			res[i] = b[i] - ax[i]
		}
		at := a.T()
		for j := 0; j < n; j++ {
			if d := Dot(at.Row(j), res); !approx(d, 0, 1e-6) {
				t.Fatalf("trial %d: residual not orthogonal to col %d: %v", trial, j, d)
			}
		}
	}
}
