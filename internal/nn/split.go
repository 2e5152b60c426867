package nn

import "netdrift/internal/par"

// A training step's hot kernels split across a par.Team by OUTPUT, never
// by reduction (DESIGN.md §5c rule 1): skipGemm by accumulator rows (the
// Dense forward by batch rows, its weight gradient by weight rows),
// vdotRows by batch rows and adamUpdate by element ranges. Every output
// element is written by exactly one part, with the same terms in the same
// order as the whole call, so a split call's bits are the whole call's.
// par.WorkersFor decides when a call is too small to split. The split
// records live on the layer or optimizer that issues the call, so a split
// allocates nothing.

// gemmSplit is a skipGemm call cut by accumulator rows.
type gemmSplit struct {
	acc        []float64
	lda        int
	x          []float64
	rx, sx     int
	v          []float64
	sv         int
	rows, cols int
	n          int
}

// Part implements par.Job.
func (j *gemmSplit) Part(i, n int) {
	lo, hi := i*j.rows/n, (i+1)*j.rows/n
	if lo < hi {
		skipGemm(j.acc[lo*j.lda:], j.lda, j.x[lo*j.rx:], j.rx, j.sx, j.v, j.sv, hi-lo, j.cols, j.n)
	}
}

// skipGemmTeam is skipGemm(acc, ...) with its rows split across team.
func skipGemmTeam(team *par.Team, j *gemmSplit, acc []float64, lda int, x []float64, rx, sx int, v []float64, sv, rows, cols, n int) {
	parts := min(par.WorkersFor(team.Width(), int64(rows)*int64(cols)*int64(n)), rows)
	if parts <= 1 {
		skipGemm(acc, lda, x, rx, sx, v, sv, rows, cols, n)
		return
	}
	*j = gemmSplit{acc: acc, lda: lda, x: x, rx: rx, sx: sx, v: v, sv: sv, rows: rows, cols: cols, n: n}
	team.Run(parts, j)
}

// vdotSplit is a vdotRows call cut by gradient rows.
type vdotSplit struct {
	gi       []float64
	ldi      int
	g, w     []float64
	rows, in int
	n        int
}

// Part implements par.Job.
func (j *vdotSplit) Part(i, n int) {
	lo, hi := i*j.rows/n, (i+1)*j.rows/n
	if lo < hi {
		vdotRows(j.gi[lo*j.ldi:], j.ldi, j.g[lo*j.n:], j.w, hi-lo, j.in, j.n)
	}
}

// vdotRowsTeam is vdotRows(gi, ...) with its rows split across team.
func vdotRowsTeam(team *par.Team, j *vdotSplit, gi []float64, ldi int, g, w []float64, rows, in, n int) {
	parts := min(par.WorkersFor(team.Width(), int64(rows)*int64(in)*int64(n)), rows)
	if parts <= 1 {
		vdotRows(gi, ldi, g, w, rows, in, n)
		return
	}
	*j = vdotSplit{gi: gi, ldi: ldi, g: g, w: w, rows: rows, in: in, n: n}
	team.Run(parts, j)
}

// adamOps is the operation count one Adam element update is charged in
// par.WorkersFor: two multiply-adds each for m and v, the two bias
// corrections, the square root, the division and the subtraction.
const adamOps = 10

// adamSplit is an adamUpdate call cut into element ranges at multiples of
// 8, so every part but the last runs whole vector groups.
type adamSplit struct {
	p, g, m, v []float64
	k          *adamCoef
}

// Part implements par.Job.
func (j *adamSplit) Part(i, n int) {
	chunk := (len(j.p) + 8*n - 1) / (8 * n) * 8
	lo, hi := min(i*chunk, len(j.p)), min((i+1)*chunk, len(j.p))
	if lo < hi {
		adamUpdate(j.p[lo:hi], j.g[lo:hi], j.m[lo:hi], j.v[lo:hi], j.k)
	}
}

// adamUpdateTeam is adamUpdate(p, g, m, v, k) with its elements split
// across team.
func adamUpdateTeam(team *par.Team, j *adamSplit, p, g, m, v []float64, k *adamCoef) {
	parts := par.WorkersFor(team.Width(), int64(len(p))*adamOps)
	if parts <= 1 || len(p) < 8*parts {
		adamUpdate(p, g, m, v, k)
		return
	}
	*j = adamSplit{p: p, g: g, m: m, v: v, k: k}
	team.Run(parts, j)
}
