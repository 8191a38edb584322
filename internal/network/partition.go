package network

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Partition is a cut of a topology's device graph into N shards, each
// with its own engine, advanced by Workers goroutines in a partitioned
// run. Only inter-switch links are ever cut: every endpoint rides with
// its edge switch, so the injection path and the endpoint credit loop
// stay shard-local. The conservative lookahead Window is the minimum
// propagation delay over the cut links — within a window of that many
// cycles no shard can observe another's events, which is what lets the
// shards tick concurrently between barriers.
type Partition struct {
	// ShardOf maps device id -> shard index.
	ShardOf []int
	// N is the number of shards (>= 2).
	N int
	// Workers is the number of goroutines that advance the shards
	// (2 <= Workers <= N).
	Workers int
	// Window is the lockstep window width: min Delay over cut links.
	Window sim.Cycle
	// CutLinks counts the physical links whose directions cross shards.
	CutLinks int
}

// shardsPerWorker is how many shards MakePartition cuts per worker.
// A static cut cannot know where the traffic will be: under a hot spot
// an even device split leaves one shard with well over the mean work
// (1.62x on x512hotspot at two shards), and a window lasts as long as
// its slowest worker. With several shards per worker the workers pull
// shards off a common list, heaviest first, so the imbalance is evened
// out while running. More shards also mean more cut links and more
// engines to step: x512hotspot at two workers took 4.06 s with 1 shard
// per worker, 3.42 s with 2, 3.12 s with 4, 3.37 s with 8 and 3.48 s
// with 16 (DESIGN.md §9 has the table).
const shardsPerWorker = 4

// MakePartition cuts t into shardsPerWorker shards per worker (at most
// one per switch) balanced by device weight (a switch weighs 1 + its
// port count, so endpoint fan-out counts toward its edge switch).
// Returns (nil, nil) when the topology is too small to shard (fewer
// than two switches, or workers <= 1): the caller falls back to the
// serial engine.
//
// The algorithm is deterministic: switches are seeded in ascending
// device-id order and regions grow breadth-first over inter-switch
// links in port order, so the same topology and worker count always
// produce the same cut.
func MakePartition(t *topo.Topology, workers int) (*Partition, error) {
	var switches []int
	for _, d := range t.Devices {
		if d.Kind == topo.Switch {
			switches = append(switches, d.ID)
		}
	}
	workers = min(workers, len(switches))
	if workers <= 1 {
		return nil, nil
	}
	shards := min(shardsPerWorker*workers, len(switches))

	weight := func(dev int) int { return 1 + len(t.Devices[dev].Ports) }
	total := 0
	for _, s := range switches {
		total += weight(s)
	}

	shardOf := make([]int, len(t.Devices))
	for i := range shardOf {
		shardOf[i] = -1
	}

	remaining := len(switches)
	cum := 0 // cumulative assigned weight across shards 0..s
	seed := 0
	for s := 0; s < shards; s++ {
		last := s == shards-1
		target := total * (s + 1) / shards
		var queue []int
		for remaining > 0 {
			if !last && cum >= target {
				break
			}
			if !last && remaining <= shards-1-s {
				// Leave at least one switch for every later shard.
				break
			}
			var dev int
			for {
				if len(queue) == 0 {
					for shardOf[switches[seed]] != -1 {
						seed++
					}
					dev = switches[seed]
					break
				}
				dev = queue[0]
				queue = queue[1:]
				if shardOf[dev] == -1 {
					break
				}
			}
			shardOf[dev] = s
			cum += weight(dev)
			remaining--
			for _, c := range t.Devices[dev].Ports {
				if c.Peer >= 0 && t.Devices[c.Peer].Kind == topo.Switch && shardOf[c.Peer] == -1 {
					queue = append(queue, c.Peer)
				}
			}
		}
	}

	// Endpoints ride with their edge switch.
	for _, d := range t.Devices {
		if d.Kind != topo.Endpoint {
			continue
		}
		peer := -1
		for _, c := range d.Ports {
			if c.Peer >= 0 {
				peer = c.Peer
				break
			}
		}
		if peer < 0 || shardOf[peer] < 0 {
			return nil, fmt.Errorf("network: partition: endpoint device %d has no assigned switch peer", d.ID)
		}
		shardOf[d.ID] = shardOf[peer]
	}

	window := sim.Cycle(0)
	cuts := 0
	for li, ls := range t.Links {
		if shardOf[ls.DevA] == shardOf[ls.DevB] {
			continue
		}
		cuts++
		if ls.Delay < 1 {
			return nil, fmt.Errorf("network: partition: link %d (%d<->%d) crosses shards with zero delay — no conservative lookahead", li, ls.DevA, ls.DevB)
		}
		if window == 0 || ls.Delay < window {
			window = ls.Delay
		}
	}
	if cuts == 0 {
		// Every switch landed in one shard (cannot happen with the
		// per-shard seed guarantee, but guard the invariant anyway).
		return nil, nil
	}
	return &Partition{ShardOf: shardOf, N: shards, Workers: workers, Window: window, CutLinks: cuts}, nil
}
