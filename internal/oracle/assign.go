package oracle

import "math"

// Dense Hungarian assignment: the O(n³) potentials algorithm over a
// materialized cost matrix. assign.MaxWeightSparse runs the same algorithm
// over CSR triples and must return bit-identical assignments; this is the
// oracle it is checked against.

// MinCost solves the rectangular assignment problem for an n×m cost matrix
// with n ≤ m: it returns rowToCol (length n, the column assigned to each
// row, all distinct) and the total cost of the assignment. It panics if
// n > m; callers should transpose first (see MaxWeight for an example).
func MinCost(cost [][]float64) (rowToCol []int, total float64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	m := len(cost[0])
	if n > m {
		panic("oracle: MinCost requires rows ≤ cols")
	}
	// Hungarian algorithm with potentials, 1-indexed internals.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)   // p[j] = row matched to column j (0 = none)
	way := make([]int, m+1) // way[j] = previous column on the alternating path
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
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
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	rowToCol = make([]int, n)
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowToCol[p[j]-1] = j - 1
		}
	}
	for i := 0; i < n; i++ {
		total += cost[i][rowToCol[i]]
	}
	return rowToCol, total
}

// MaxWeight solves the square maximum-weight assignment problem: it returns
// rowToCol maximizing Σ weight[i][rowToCol[i]] and the achieved total.
// The matrix must be square.
func MaxWeight(weight [][]float64) (rowToCol []int, total float64) {
	n := len(weight)
	if n == 0 {
		return nil, 0
	}
	if len(weight[0]) != n {
		panic("oracle: MaxWeight requires a square matrix")
	}
	neg := make([][]float64, n)
	for i := range weight {
		neg[i] = make([]float64, n)
		for j := range weight[i] {
			neg[i][j] = -weight[i][j]
		}
	}
	rowToCol, negTotal := MinCost(neg)
	return rowToCol, -negTotal
}
