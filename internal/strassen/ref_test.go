package strassen

import (
	"writeavoid/internal/machine"
	"writeavoid/internal/matrix"
)

// Reference implementations: the recursions as they were, with fresh
// matrix.New temporaries at every level and At/Set streams, kept as the
// slow reference the scratch-stack versions are checked against bit for bit.

func refBase(m int64) int {
	base := 1
	for int64(3*(base*2)*(base*2)) <= m {
		base *= 2
	}
	return base
}

func refMultiply(h *machine.Hierarchy, m int64, a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, a.Rows)
	refRec(h, m, refBase(m), c, a, b)
	return c
}

func refMultiplyWinograd(h *machine.Hierarchy, m int64, a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, a.Rows)
	refWinogradRec(h, m, refBase(m), c, a, b)
	return c
}

func refLeaf(h *machine.Hierarchy, c, a, b *matrix.Dense) {
	n := a.Rows
	h.Load(0, 2*int64(n)*int64(n))
	h.Init(0, int64(n)*int64(n))
	c.Zero()
	matrix.MulAdd(c, a, b)
	h.Flops(2 * int64(n) * int64(n) * int64(n))
	h.Store(0, int64(n)*int64(n))
	h.Discard(0, 2*int64(n)*int64(n))
}

func refRec(h *machine.Hierarchy, m int64, base int, c, a, b *matrix.Dense) {
	n := a.Rows
	if n <= base {
		refLeaf(h, c, a, b)
		return
	}
	half := n / 2
	q := func(x *matrix.Dense, i, j int) *matrix.Dense { return x.Block(i*half, j*half, half, half) }
	a11, a12, a21, a22 := q(a, 0, 0), q(a, 0, 1), q(a, 1, 0), q(a, 1, 1)
	b11, b12, b21, b22 := q(b, 0, 0), q(b, 0, 1), q(b, 1, 0), q(b, 1, 1)
	c11, c12, c21, c22 := q(c, 0, 0), q(c, 0, 1), q(c, 1, 0), q(c, 1, 1)

	tmp := func() *matrix.Dense { return matrix.New(half, half) }
	s1, s2, s3, s4, s5 := tmp(), tmp(), tmp(), tmp(), tmp()
	t1, t2, t3, t4, t5 := tmp(), tmp(), tmp(), tmp(), tmp()
	refStreamBinary(h, m, s1, a11, a22, +1)
	refStreamBinary(h, m, s2, a21, a22, +1)
	refStreamBinary(h, m, s3, a11, a12, +1)
	refStreamBinary(h, m, s4, a21, a11, -1)
	refStreamBinary(h, m, s5, a12, a22, -1)
	refStreamBinary(h, m, t1, b11, b22, +1)
	refStreamBinary(h, m, t2, b12, b22, -1)
	refStreamBinary(h, m, t3, b21, b11, -1)
	refStreamBinary(h, m, t4, b11, b12, +1)
	refStreamBinary(h, m, t5, b21, b22, +1)

	m1, m2, m3, m4, m5, m6, m7 := tmp(), tmp(), tmp(), tmp(), tmp(), tmp(), tmp()
	refRec(h, m, base, m1, s1, t1)
	refRec(h, m, base, m2, s2, b11)
	refRec(h, m, base, m3, a11, t2)
	refRec(h, m, base, m4, a22, t3)
	refRec(h, m, base, m5, s3, b22)
	refRec(h, m, base, m6, s4, t4)
	refRec(h, m, base, m7, s5, t5)

	refStreamBinary(h, m, c11, m1, m4, +1)
	refStreamAccum(h, m, c11, m5, -1)
	refStreamAccum(h, m, c11, m7, +1)
	refStreamBinary(h, m, c12, m3, m5, +1)
	refStreamBinary(h, m, c21, m2, m4, +1)
	refStreamBinary(h, m, c22, m1, m2, -1)
	refStreamAccum(h, m, c22, m3, +1)
	refStreamAccum(h, m, c22, m6, +1)
}

func refWinogradRec(h *machine.Hierarchy, m int64, base int, c, a, b *matrix.Dense) {
	n := a.Rows
	if n <= base {
		refLeaf(h, c, a, b)
		return
	}
	half := n / 2
	q := func(x *matrix.Dense, i, j int) *matrix.Dense { return x.Block(i*half, j*half, half, half) }
	a11, a12, a21, a22 := q(a, 0, 0), q(a, 0, 1), q(a, 1, 0), q(a, 1, 1)
	b11, b12, b21, b22 := q(b, 0, 0), q(b, 0, 1), q(b, 1, 0), q(b, 1, 1)
	c11, c12, c21, c22 := q(c, 0, 0), q(c, 0, 1), q(c, 1, 0), q(c, 1, 1)

	tmp := func() *matrix.Dense { return matrix.New(half, half) }
	s1, s2, s3, s4 := tmp(), tmp(), tmp(), tmp()
	t1, t2, t3, t4 := tmp(), tmp(), tmp(), tmp()
	refStreamBinary(h, m, s1, a21, a22, +1)
	refStreamBinary(h, m, s2, s1, a11, -1)
	refStreamBinary(h, m, s3, a11, a21, -1)
	refStreamBinary(h, m, s4, a12, s2, -1)
	refStreamBinary(h, m, t1, b12, b11, -1)
	refStreamBinary(h, m, t2, b22, t1, -1)
	refStreamBinary(h, m, t3, b22, b12, -1)
	refStreamBinary(h, m, t4, t2, b21, -1)

	p1, p2, p3, p4, p5, p6, p7 := tmp(), tmp(), tmp(), tmp(), tmp(), tmp(), tmp()
	refWinogradRec(h, m, base, p1, a11, b11)
	refWinogradRec(h, m, base, p2, a12, b21)
	refWinogradRec(h, m, base, p3, s4, b22)
	refWinogradRec(h, m, base, p4, a22, t4)
	refWinogradRec(h, m, base, p5, s1, t1)
	refWinogradRec(h, m, base, p6, s2, t2)
	refWinogradRec(h, m, base, p7, s3, t3)

	u2, u3 := tmp(), tmp()
	refStreamBinary(h, m, c11, p1, p2, +1)
	refStreamBinary(h, m, u2, p1, p6, +1)
	refStreamBinary(h, m, u3, u2, p7, +1)
	refStreamBinary(h, m, c21, u3, p4, -1)
	refStreamBinary(h, m, c22, u3, p5, +1)
	refStreamBinary(h, m, c12, u2, p5, +1)
	refStreamAccum(h, m, c12, p3, +1)
}

func refStreamBinary(h *machine.Hierarchy, m int64, dst, x, y *matrix.Dense, sign float64) {
	chunk := int(m / 3)
	if chunk < 1 {
		chunk = 1
	}
	total := dst.Rows * dst.Cols
	for off := 0; off < total; off += chunk {
		cw := min(chunk, total-off)
		h.Load(0, 2*int64(cw))
		h.Init(0, int64(cw))
		for e := off; e < off+cw; e++ {
			i, j := e/dst.Cols, e%dst.Cols
			dst.Set(i, j, x.At(i, j)+sign*y.At(i, j))
		}
		h.Flops(int64(cw))
		h.Store(0, int64(cw))
		h.Discard(0, 2*int64(cw))
	}
}

func refStreamAccum(h *machine.Hierarchy, m int64, dst, y *matrix.Dense, sign float64) {
	chunk := int(m / 3)
	if chunk < 1 {
		chunk = 1
	}
	total := dst.Rows * dst.Cols
	for off := 0; off < total; off += chunk {
		cw := min(chunk, total-off)
		h.Load(0, 2*int64(cw))
		for e := off; e < off+cw; e++ {
			i, j := e/dst.Cols, e%dst.Cols
			dst.Set(i, j, dst.At(i, j)+sign*y.At(i, j))
		}
		h.Flops(int64(cw))
		h.Store(0, int64(cw))
		h.Discard(0, int64(cw))
	}
}
