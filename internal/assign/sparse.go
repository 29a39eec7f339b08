// Package assign implements the linear assignment problem (Hungarian
// algorithm, O(n³) with potentials).
//
// The redistribution layer uses it to choose the receiver rank order that
// maximizes self-communication when the sender and receiver processor sets
// of a redistribution intersect (§II-A of the paper: "our redistribution
// algorithm tries to maximize the amount of self communications").
//
// MaxWeightSparse solves the square problem over CSR triples with a
// reusable Scratch and no matrix materialization. It is bit-identical to
// the dense solver internal/oracle keeps as its test oracle — same
// algorithm, same row order, same floating-point expressions — which the
// hot alignment path depends on.
package assign

import "math"

// Scratch holds the working state of MaxWeightSparse: Hungarian potentials,
// matching arrays, the per-row minimum slack, and the visited-column bitset.
// Reusing one Scratch across calls makes the solver allocation-free in
// steady state (slices grow to the largest problem seen and stay). A
// Scratch is not safe for concurrent use; the zero value is ready.
type Scratch struct {
	u, v, minv []float64
	p, way     []int32
	used       []uint64 // visited-column bitset, 1 bit per column (1-indexed)
	rowToCol   []int
}

// grow sizes the scratch for an n×n problem (1-indexed internals).
func (s *Scratch) grow(n int) {
	m := n + 1
	if cap(s.u) < m {
		s.u = make([]float64, m)
		s.v = make([]float64, m)
		s.minv = make([]float64, m)
		s.p = make([]int32, m)
		s.way = make([]int32, m)
	}
	s.u = s.u[:m]
	s.v = s.v[:m]
	s.minv = s.minv[:m]
	s.p = s.p[:m]
	s.way = s.way[:m]
	for i := range s.u {
		s.u[i] = 0
		s.v[i] = 0
		s.p[i] = 0
		s.way[i] = 0
	}
	w := (m + 63) / 64
	if cap(s.used) < w {
		s.used = make([]uint64, w)
	}
	s.used = s.used[:w]
	if cap(s.rowToCol) < n {
		s.rowToCol = make([]int, n)
	}
	s.rowToCol = s.rowToCol[:n]
}

func (s *Scratch) visit(j int)        { s.used[j>>6] |= 1 << (uint(j) & 63) }
func (s *Scratch) visited(j int) bool { return s.used[j>>6]&(1<<(uint(j)&63)) != 0 }

func (s *Scratch) clearVisited() {
	for i := range s.used {
		s.used[i] = 0
	}
}

// MaxWeightSparse solves the square n×n maximum-weight assignment problem
// over a CSR triple list: row i's non-zero entries are (cols[k], weights[k])
// for k in [rowPtr[i], rowPtr[i+1]), with cols sorted strictly ascending
// within each row; every entry not listed is zero. Rows past the last
// rowPtr segment are empty (all-zero), so callers only describe the rows
// that carry weight.
//
// The result is bit-identical to the dense oracle (oracle.MaxWeight) on the
// equivalent matrix: the solver runs the same Hungarian algorithm with
// potentials, in the same row order, with the same floating-point
// expressions — the entry lookup is the only thing that changed, so
// tie-breaking between equal-benefit columns resolves exactly as the dense
// oracle does. The randomized equivalence tests pin this.
//
// The returned rowToCol slice is owned by the scratch and valid until the
// next call with the same Scratch. Passing a nil scratch allocates a
// temporary one.
func MaxWeightSparse(n int, rowPtr, cols []int, weights []float64, sc *Scratch) (rowToCol []int, total float64) {
	if n == 0 {
		return nil, 0
	}
	if len(rowPtr) == 0 || rowPtr[0] != 0 || len(rowPtr) > n+1 {
		panic("assign: MaxWeightSparse rowPtr must start at 0 and describe at most n rows")
	}
	if last := rowPtr[len(rowPtr)-1]; last != len(cols) || len(cols) != len(weights) {
		panic("assign: MaxWeightSparse cols/weights must match the rowPtr extent")
	}
	for r := 0; r+1 < len(rowPtr); r++ {
		for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
			if cols[k] < 0 || cols[k] >= n {
				panic("assign: MaxWeightSparse column out of range")
			}
			if k > rowPtr[r] && cols[k] <= cols[k-1] {
				panic("assign: MaxWeightSparse columns must be strictly ascending per row")
			}
		}
	}
	if sc == nil {
		sc = &Scratch{}
	}
	sc.grow(n)
	u, v, minv, p, way := sc.u, sc.v, sc.minv, sc.p, sc.way

	// Hungarian algorithm with potentials on the negated weights, exactly
	// as the dense oracle runs it (1-indexed, square): rows are inserted
	// in order; each insertion grows the matching along a shortest
	// augmenting path. cost(i, j) = -weight[i][j], fetched from the CSR
	// band on the fly instead of a materialized matrix.
	for i := 1; i <= n; i++ {
		var rowCols []int
		var rowWts []float64
		if i < len(rowPtr) {
			rowCols = cols[rowPtr[i-1]:rowPtr[i]]
			rowWts = weights[rowPtr[i-1]:rowPtr[i]]
		}
		p[0] = int32(i)
		j0 := 0
		sc.clearVisited()
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			sc.visit(j0)
			i0 := int(p[j0])
			delta := math.Inf(1)
			j1 := -1
			// The path's cost terms reference row i0 — the row matched to
			// the visited column — which is an earlier row once the
			// alternating path leaves the freshly inserted one.
			c0, w0 := rowCols, rowWts
			if i0 != i {
				c0, w0 = rowOf(rowPtr, cols, weights, i0)
			}
			k := 0
			for j := 1; j <= n; j++ {
				if sc.visited(j) {
					continue
				}
				cost := 0.0
				for k < len(c0) && c0[k] < j-1 {
					k++
				}
				if k < len(c0) && c0[k] == j-1 {
					cost = -w0[k]
				}
				cur := cost - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = int32(j0)
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if sc.visited(j) {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := int(way[j0])
			p[j0] = p[j1]
			j0 = j1
		}
	}
	rowToCol = sc.rowToCol
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			rowToCol[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		c, w := rowOf(rowPtr, cols, weights, i+1)
		j := rowToCol[i]
		for k := range c {
			if c[k] == j {
				total += w[k]
				break
			}
		}
	}
	return rowToCol, total
}

// rowOf returns the CSR slice of 1-indexed row i (empty past the rowPtr
// extent).
func rowOf(rowPtr, cols []int, weights []float64, i int) ([]int, []float64) {
	if i >= len(rowPtr) {
		return nil, nil
	}
	return cols[rowPtr[i-1]:rowPtr[i]], weights[rowPtr[i-1]:rowPtr[i]]
}
