package strassen

import (
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// MultiplyWinograd computes C = A*B with the Winograd variant of Strassen's
// algorithm: still 7 recursive products, but 15 additions instead of 18, so
// ~17% fewer temporary-stream writes per level. An ablation for the
// Corollary 3 discussion: the constant in front of the unavoidable
// Omega(n^omega0 / M^(omega0/2-1)) writes shrinks, the asymptotics do not.
func MultiplyWinograd(h *machine.Hierarchy, m int64, a, b *matrix.Dense) (*matrix.Dense, error) {
	return multiply(h, m, a, b, winogradRec)
}

func winogradRec(h *machine.Hierarchy, m int64, base int, st stack, c, a, b *matrix.Dense) {
	n := a.Rows
	if n <= base {
		leaf(h, c, a, b)
		return
	}
	half := n / 2
	q := func(x *matrix.Dense, i, j int) *matrix.Dense { return x.Block(i*half, j*half, half, half) }
	a11, a12, a21, a22 := q(a, 0, 0), q(a, 0, 1), q(a, 1, 0), q(a, 1, 1)
	b11, b12, b21, b22 := q(b, 0, 0), q(b, 0, 1), q(b, 1, 0), q(b, 1, 1)
	c11, c12, c21, c22 := q(c, 0, 0), q(c, 0, 1), q(c, 1, 0), q(c, 1, 1)

	var t [temps]matrix.Dense
	st = st.take(t[:], half)
	// Winograd's 8 encoding sums (vs Strassen's 10).
	s1, s2, s3, s4 := &t[0], &t[1], &t[2], &t[3]
	t1, t2, t3, t4 := &t[4], &t[5], &t[6], &t[7]
	streamBinary(h, m, s1, a21, a22, +1) // S1 = A21+A22
	streamBinary(h, m, s2, s1, a11, -1)  // S2 = S1-A11
	streamBinary(h, m, s3, a11, a21, -1) // S3 = A11-A21
	streamBinary(h, m, s4, a12, s2, -1)  // S4 = A12-S2
	streamBinary(h, m, t1, b12, b11, -1) // T1 = B12-B11
	streamBinary(h, m, t2, b22, t1, -1)  // T2 = B22-T1
	streamBinary(h, m, t3, b22, b12, -1) // T3 = B22-B12
	streamBinary(h, m, t4, t2, b21, -1)  // T4 = T2-B21

	p1, p2, p3, p4, p5, p6, p7 := &t[8], &t[9], &t[10], &t[11], &t[12], &t[13], &t[14]
	winogradRec(h, m, base, st, p1, a11, b11) // P1 = A11*B11
	winogradRec(h, m, base, st, p2, a12, b21) // P2 = A12*B21
	winogradRec(h, m, base, st, p3, s4, b22)  // P3 = S4*B22
	winogradRec(h, m, base, st, p4, a22, t4)  // P4 = A22*T4
	winogradRec(h, m, base, st, p5, s1, t1)   // P5 = S1*T1
	winogradRec(h, m, base, st, p6, s2, t2)   // P6 = S2*T2
	winogradRec(h, m, base, st, p7, s3, t3)   // P7 = S3*T3

	// Winograd's 7 decoding sums (vs Strassen's 8).
	u2, u3 := &t[15], &t[16]
	streamBinary(h, m, c11, p1, p2, +1) // C11 = P1+P2
	streamBinary(h, m, u2, p1, p6, +1)  // U2 = P1+P6
	streamBinary(h, m, u3, u2, p7, +1)  // U3 = U2+P7
	streamBinary(h, m, c21, u3, p4, -1) // C21 = U3-P4
	streamBinary(h, m, c22, u3, p5, +1) // C22 = U3+P5
	streamBinary(h, m, c12, u2, p5, +1) // C12 = U2+P5
	streamAccum(h, m, c12, p3, +1)      //     + P3
}
