package topo

import "fmt"

// FatTree is a k-ary n-tree topology plus the structural metadata
// needed for deterministic (DET) routing: every switch's level and
// index digits.
//
// Structure (Petrini/Vanneschi): k^n endpoints and n levels of k^(n-1)
// switches. Level 0 is adjacent to the endpoints. A switch is named
// <l, w> with w an (n-1)-digit radix-k index. Switch <l, w> and switch
// <l+1, w'> are connected iff w and w' agree on every digit except
// digit l. Each switch has 2k ports: ports 0..k-1 go down, ports
// k..2k-1 go up (unconnected at the top level).
type FatTree struct {
	*Topology
	K, N int
	// level and widx per device id (switches only; -1 / nil for endpoints)
	level []int
	windx [][]int // n-1 digits, windx[dev][i] = digit i (least significant first)
}

// Level returns the tree level of switch device dev (0 = leaf level),
// or -1 for endpoints.
func (f *FatTree) Level(dev int) int { return f.level[dev] }

// digitsOf decomposes v into nd radix-k digits, least significant first.
func digitsOf(v, k, nd int) []int {
	d := make([]int, nd)
	for i := 0; i < nd; i++ {
		d[i] = v % k
		v /= k
	}
	return d
}

// digit returns radix-k digit i of v (0 = least significant) without
// decomposing the rest.
func digit(v, k, i int) int { return v / pow(k, i) % k }

func valueOf(d []int, k int) int {
	v := 0
	for i := len(d) - 1; i >= 0; i-- {
		v = v*k + d[i]
	}
	return v
}

// KaryNTree builds a k-ary n-tree routed by DET, with the paper's
// 2.5 GB/s links throughout. k >= 2, n >= 2.
func KaryNTree(k, n int) (*FatTree, error) {
	if k < 2 || n < 2 {
		return nil, fmt.Errorf("topo: k-ary n-tree needs k>=2, n>=2 (got k=%d n=%d)", k, n)
	}
	numEP := pow(k, n)
	perLevel := pow(k, n-1)
	b := NewBuilder(fmt.Sprintf("%d-ary %d-tree", k, n))

	// Endpoints first: device ids 0..numEP-1 == endpoint ids.
	for e := 0; e < numEP; e++ {
		b.AddEndpoint(fmt.Sprintf("node%d", e))
	}
	// Switches: device id = numEP + l*perLevel + wval.
	nd := numEP + n*perLevel
	ft := &FatTree{K: k, N: n, level: make([]int, nd), windx: make([][]int, nd)}
	for e := 0; e < numEP; e++ {
		ft.level[e] = -1
	}
	swID := func(l, wval int) int { return numEP + l*perLevel + wval }
	for l := 0; l < n; l++ {
		for w := 0; w < perLevel; w++ {
			id := b.AddSwitch(fmt.Sprintf("sw<%d,%d>", l, w), 2*k)
			ft.level[id] = l
			ft.windx[id] = digitsOf(w, k, n-1)
		}
	}

	// Endpoint links: level-0 switch <0,w> down port j <-> endpoint w*k+j.
	for w := 0; w < perLevel; w++ {
		for j := 0; j < k; j++ {
			ep := w*k + j
			b.Connect(ep, 0, swID(0, w), j)
		}
	}
	// Inter-level links: up port j of <l,w> connects to <l+1, w[l]:=j>.
	// The peer's down port is the replaced digit w[l] of the lower switch.
	for l := 0; l < n-1; l++ {
		for w := 0; w < perLevel; w++ {
			d := digitsOf(w, k, n-1)
			for j := 0; j < k; j++ {
				up := make([]int, n-1)
				copy(up, d)
				up[l] = j
				b.Connect(swID(l, w), k+j, swID(l+1, valueOf(up, k)), d[l])
			}
		}
	}

	t, err := b.build(ft.det)
	if err != nil {
		return nil, err
	}
	ft.Topology = t
	return ft, nil
}

// InSubtree reports whether endpoint e is below switch dev: the
// endpoint's digits strictly above position level(dev) match the
// switch index digits at the same positions.
func (f *FatTree) InSubtree(dev, e int) bool {
	l := f.level[dev]
	if l < 0 {
		return false
	}
	w := f.windx[dev]
	for i := l + 1; i < f.N; i++ {
		if digit(e, f.K, i) != w[i-1] {
			return false
		}
	}
	return true
}

// det is the deterministic up-path rule from "Deterministic versus
// adaptive routing in fat-trees" (Gomez et al., cited as the DET
// algorithm in Table I): when ascending at level l towards destination
// e, take up port k + e_l (the destination's level-l digit). All
// traffic addressed to e thereby converges on a single per-destination
// tree, the property the congestion-management study depends on.
func (f *FatTree) det(dev, dest int, candidates []int) int {
	l := f.level[dev]
	if l < 0 || len(candidates) == 1 {
		return candidates[0]
	}
	want := f.K + digit(dest, f.K, l)
	for _, p := range candidates {
		if p == want {
			return p
		}
	}
	// Down-phase (or degenerate case): unique shortest path in a tree,
	// but be safe and pick deterministically.
	return candidates[dest%len(candidates)]
}

func pow(b, e int) int {
	v := 1
	for i := 0; i < e; i++ {
		v *= b
	}
	return v
}
