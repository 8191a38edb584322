package topo

import "fmt"

// LeafSpine is a two-level Clos ("leaf-spine") fabric plus the
// structural metadata needed for deterministic routing: `Leaves` leaf
// switches with `Down` endpoints each, every leaf wired to every one of
// `Spines` spine switches by `Trunk` parallel links. The
// oversubscription ratio is Down : Spines*Trunk — with less uplink than
// downlink capacity the fabric is deliberately under-provisioned, the
// usual way modern clusters trade bisection bandwidth for cost, and a
// natural stress case for congestion management beyond the paper's
// full-bisection k-ary n-trees.
//
// Endpoints are numbered leaf-major: leaf L hosts endpoints
// L*Down .. L*Down+Down-1. All links run at the paper's 2.5 GB/s.
type LeafSpine struct {
	*Topology
	Leaves, Down, Spines, Trunk int

	leafStart, spineStart int // device ids of the first leaf / spine
}

// NewLeafSpine builds the fabric, routed by DET. leaves >= 2; down,
// spines, trunk >= 1.
//
// Port map: leaf L uses ports 0..down-1 for its endpoints and port
// down + s*trunk + k for trunk member k towards spine s; spine s uses
// port L*trunk + k for the same link, so every leaf-spine pair is
// joined by exactly `trunk` parallel links.
func NewLeafSpine(leaves, down, spines, trunk int) (*LeafSpine, error) {
	if leaves < 2 || down < 1 || spines < 1 || trunk < 1 {
		return nil, fmt.Errorf("topo: leaf-spine needs >=2 leaves, >=1 down, >=1 spine, >=1 trunk (got %d/%d/%d/%d)", leaves, down, spines, trunk)
	}
	name := fmt.Sprintf("leaf-spine %dx%d over %d spines", leaves, down, spines)
	if trunk > 1 {
		name += fmt.Sprintf(" x%d trunks", trunk)
	}
	b := NewBuilder(name)

	ls := &LeafSpine{Leaves: leaves, Down: down, Spines: spines, Trunk: trunk}

	for e := 0; e < leaves*down; e++ {
		b.AddEndpoint(fmt.Sprintf("node%d", e))
	}
	leafIDs := make([]int, leaves)
	for l := 0; l < leaves; l++ {
		leafIDs[l] = b.AddSwitch(fmt.Sprintf("leaf%d", l), down+spines*trunk)
	}
	spineIDs := make([]int, spines)
	for s := 0; s < spines; s++ {
		spineIDs[s] = b.AddSwitch(fmt.Sprintf("spine%d", s), leaves*trunk)
	}
	ls.leafStart, ls.spineStart = leafIDs[0], spineIDs[0]

	// Endpoint links: leaf L port j <-> endpoint L*down+j.
	for l := 0; l < leaves; l++ {
		for j := 0; j < down; j++ {
			b.Connect(l*down+j, 0, leafIDs[l], j)
		}
	}
	// Fabric links: leaf L port down+s*trunk+k <-> spine s port L*trunk+k.
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			for k := 0; k < trunk; k++ {
				b.Connect(leafIDs[l], down+s*trunk+k, spineIDs[s], l*trunk+k)
			}
		}
	}
	t, err := b.build(ls.det)
	if err != nil {
		return nil, err
	}
	ls.Topology = t
	return ls, nil
}

// LeafOf returns the index of the leaf switch hosting endpoint e.
func (ls *LeafSpine) LeafOf(e int) int { return e / ls.Down }

// LeafDevice returns the device id of leaf switch l.
func (ls *LeafSpine) LeafDevice(l int) int { return ls.leafStart + l }

// SpineDevice returns the device id of spine switch s.
func (ls *LeafSpine) SpineDevice(s int) int { return ls.spineStart + s }

// det is the fabric's DET rule: every packet addressed to endpoint e
// climbs to spine e mod Spines over trunk member (e / Spines) mod Trunk
// and descends over the same trunk member, so all traffic to one destination converges on a single
// per-destination tree — the invariant the congestion-management study
// depends on — while distinct destinations spread across the whole
// spine layer and all trunk members.
func (ls *LeafSpine) det(dev, dest int, candidates []int) int {
	if len(candidates) == 1 {
		return candidates[0]
	}
	s := dest % ls.Spines
	k := (dest / ls.Spines) % ls.Trunk
	var want int
	switch {
	case dev >= ls.leafStart && dev < ls.spineStart:
		// Ascending at a leaf: trunk member k towards spine s.
		want = ls.Down + s*ls.Trunk + k
	case dev >= ls.spineStart:
		// Descending at a spine: trunk member k towards the leaf of dest.
		want = ls.LeafOf(dest)*ls.Trunk + k
	default:
		// Endpoints have one port; not reachable with >1 candidate.
		return candidates[0]
	}
	for _, p := range candidates {
		if p == want {
			return p
		}
	}
	return candidates[dest%len(candidates)]
}
