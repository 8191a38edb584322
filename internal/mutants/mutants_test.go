// Package mutants is the kill matrix: a table of source mutants, each a
// small defect written as exact edits to the module's own files, and a
// harness that applies them one at a time to a copy of the module and
// records which gates reject each. The committed testdata/kill_matrix.txt
// is the expectation: a gate that stops killing a mutant it killed, or a
// mutant nobody kills any more, shows up as a diff of that file.
//
// The package has no non-test code and changes nothing in the module it
// checks. TestTable (tier 1, well under a second) holds the table to the
// tree: every edit's old text occurs exactly once in its file, and the
// matrix lists exactly the table's (mutant, gate) pairs. TestKillMatrix
// runs every mutant and rewrites the matrix:
//
//	go test ./internal/mutants -run TestKillMatrix -update
package mutants

// edit replaces the one occurrence of old in file (a slash path from
// the module root) with new.
type edit struct {
	file, old, new string
}

// gate is a go test run: a package pattern, an optional -run pattern,
// and the race detector when race is set. With sub set the gate is that
// one subtest's outcome; gates that differ only in sub share one run.
type gate struct {
	pkg, run, sub string
	race          bool
}

// mutant is one defect. Beyond the gates every mutant runs (go vet's CI
// set, the tests of each package it edits), it names the gates that say
// something about it, killers or not.
type mutant struct {
	name, reason string
	edits        []edit
	gates        []gate
}

// The golden-cell gates: the 27 golden digests, and the work ledger's
// rows off the same runs. A speed-up reverted passes the first and
// fails the second; a behaviour change fails the first.
var (
	digests   = gate{pkg: "./internal/experiments", run: "TestGoldenDigests", sub: "TestGoldenDigests/digests"}
	ledger    = gate{pkg: "./internal/experiments", run: "TestGoldenDigests", sub: "TestGoldenDigests/ledger"}
	zeroAlloc = gate{pkg: ".", run: "TestSteadyStateZeroAlloc"}
	// claims is the paper's claims table: does a mechanism defect
	// change what the reproduction claims, not just its digests?
	claims = gate{pkg: "./internal/oracle", run: "TestClaims"}
	// rerun runs one scenario twice and compares every packet's latency.
	rerun = gate{pkg: "./internal/oracle", run: "TestEngineRerunExact"}
)

var table = []mutant{
	// The credit pool: the lossless, credit-exact fabric every result
	// rests on.
	{
		name:   "credit-give-plus-one",
		reason: "every credit refund returns one byte too many",
		edits: []edit{{"internal/core/credits.go",
			"func (c *CreditPool) Give(dest, n int) {\n",
			"func (c *CreditPool) Give(dest, n int) {\n\tn += 1\n"}},
		gates: []gate{digests, {pkg: "./internal/oracle", run: "TestSelfCheckFaultsAreDirectional"}},
	},
	{
		name:   "credit-give-minus-256",
		reason: "every credit refund leaks 256 bytes",
		edits: []edit{{"internal/core/credits.go",
			"func (c *CreditPool) Give(dest, n int) {\n",
			"func (c *CreditPool) Give(dest, n int) {\n\tn -= 256\n"}},
		gates: []gate{digests, {pkg: "./internal/oracle", run: "TestSelfCheckFaultsAreDirectional"}},
	},

	// The engine's speed-ups reverted: each one keeps every result and
	// costs work, so the digests pass and the work ledger fails.
	{
		name:   "switch-never-naps",
		reason: "a busy switch with nothing to do until a deadline ticks every cycle instead of napping",
		edits: []edit{{"internal/switchfab/switch.go",
			"\t\ts.napAt = now + 1\n",
			"\t\treturn now + 1\n"}},
		gates: []gate{digests, ledger},
	},
	{
		name:   "node-never-skips",
		reason: "an end node with nothing due ticks every cycle instead of skipping to its deadline",
		edits: []edit{{"internal/endnode/node.go",
			"\tif !acted {\n\t\tif due := n.nextDue(now); due > now+1 {\n",
			"\tif !acted && false {\n\t\tif due := n.nextDue(now); due > now+1 {\n"}},
		gates: []gate{digests, ledger},
	},
	{
		name:   "pool-keeps-nothing",
		reason: "Pool.Release scrubs the packet and drops it, so every packet is allocated fresh",
		edits: []edit{{"internal/pkt/pkt.go",
			"\tpl.free = append(pl.free, p)\n",
			""}},
		gates: []gate{digests, ledger},
	},
	{
		name:   "voqnet-bank-always-due",
		reason: "destBank.NextDue returns now, so a VOQnet port never cools",
		edits: []edit{{"internal/core/qdisc.go",
			"func (d *destBank) DestBytes(dest int) int { return d.qs[dest].Bytes() }\n",
			"func (d *destBank) DestBytes(dest int) int { return d.qs[dest].Bytes() }\n\nfunc (d *destBank) NextDue(now sim.Cycle) sim.Cycle { return now }\n"}},
		gates: []gate{digests, ledger},
	},
	{
		name:   "advoqs-built-eagerly",
		reason: "endnode.New builds every per-destination AdVOQ up front instead of on first use",
		edits: []edit{{"internal/endnode/node.go",
			"\tn.occupied.Grow(numEndpoints)\n",
			"\tn.occupied.Grow(numEndpoints)\n\tfor d := range n.advoqs {\n\t\tn.advoqs[d] = new(buffer.Queue)\n\t}\n"}},
		gates: []gate{digests, {pkg: "./internal/experiments", run: "TestBuildAllocsPinned|TestCellAllocsPinned"}},
	},
	{
		name:   "sources-never-park",
		reason: "a fixed-destination flow meeting a full AdVOQ retries every cycle instead of parking on its node",
		edits: []edit{{"internal/traffic/traffic.go",
			"\t\t\tif f.Dst == UniformDst {\n\t\t\t\tf.phase = hot\n",
			"\t\t\tif true {\n\t\t\t\tf.phase = hot\n"}},
		gates: []gate{digests, ledger},
	},
	{
		name:   "node-idle-ticks-on",
		reason: "an idle end node asks for the next cycle instead of sim.Never",
		edits: []edit{{"internal/endnode/node.go",
			"\tif n.occupied.Len() == 0 && n.pending.Empty() && n.disc.Quiescent() {\n\t\treturn sim.Never\n",
			"\tif n.occupied.Len() == 0 && n.pending.Empty() && n.disc.Quiescent() {\n\t\treturn now + 1\n"}},
		gates: []gate{digests, ledger,
			{pkg: "./internal/invariant", run: "TestCheckerPacing"},
			{pkg: "./internal/network", run: "TestPartitionInfoCounters"}},
	},

	// Lost wake-ups: a device or source that sleeps through work.
	{
		name:   "switch-heat-no-wake",
		reason: "heating a port of a napping switch does not wake the switch",
		edits: []edit{{"internal/switchfab/switch.go",
			"func (s *Switch) heat(i int, now sim.Cycle) {\n\ts.wake()\n",
			"func (s *Switch) heat(i int, now sim.Cycle) {\n"}},
		gates: []gate{digests},
	},
	{
		name:   "node-room-hook-dropped",
		reason: "an AdVOQ slot freed on a node with parked sources wakes none of them",
		edits: []edit{{"internal/endnode/node.go",
			"\t\t\t\tn.room(n.id, i)\n",
			""}},
		gates: []gate{digests, {pkg: "./internal/traffic"}},
	},
	{
		name:   "cam-exhausted-wait-cools",
		reason: "a head waiting for a free CFQ stops counting as an action, so its port cools between retries",
		edits: []edit{{"internal/core/isolation.go",
			"\t\t\treturn true // no CFQ free: head proceeds as normal traffic\n",
			"\t\t\treturn acted // no CFQ free: head proceeds as normal traffic\n"}},
		gates: []gate{digests, ledger, claims},
	},

	// The isolation protocol's parameters and the reference model.
	{
		name:   "demote-root-any-dest",
		reason: "a downstream CFQAlloc demotes every root line on its output, whatever the line's destination",
		edits: []edit{{"internal/core/isolation.go",
			"\t\tif line.valid && line.Root && line.Out == out && line.Dest == dest {\n",
			"\t\tif line.valid && line.Root && line.Out == out {\n"}},
		gates: []gate{digests, ledger, claims},
	},
	{
		name:   "ccfit-marking-rate",
		reason: "the CCFIT preset marks at 0.80 instead of 0.85",
		edits: []edit{{"internal/core/params.go",
			"\t\tMarkingRate:        0.85,\n",
			"\t\tMarkingRate:        0.80,\n"}},
		gates: []gate{digests, {pkg: "./internal/oracle", run: "TestGoldenCurves"}, claims},
	},
	{
		name:   "link-hop-plus-16",
		reason: "every data hop lands 16 cycles late, so no unshared flow's packet matches the reference's latency",
		edits: []edit{{"internal/link/link.go",
			"h.wire.At(h.busyUntil+h.delay, flight{",
			"h.wire.At(h.busyUntil+h.delay+16, flight{"}},
		gates: []gate{
			{pkg: "./internal/oracle", run: "TestDifferentialAllSchemes"},
			{pkg: "./internal/oracle", run: "TestGoldenCurves"}},
	},
	{
		name:   "xbar-transfer-plus-one",
		reason: "every crossbar transfer takes one cycle longer than ceil(size/xbar)",
		edits: []edit{{"internal/switchfab/switch.go",
			"xfer := sim.Cycle((p.Size + s.xbar - 1) / s.xbar)\n",
			"xfer := sim.Cycle((p.Size+s.xbar-1)/s.xbar) + 1\n"}},
		gates: []gate{{pkg: "./internal/oracle", run: "TestDifferentialAllSchemes"}, digests},
	},
	{
		name:   "sink-skips-deliver-hook",
		reason: "the sink skips its deliver hook on every 1000th delivery, so metrics lose packets the fabric delivered",
		edits: []edit{{"internal/endnode/node.go",
			"\tif n.onDeliver != nil {\n\t\tn.onDeliver(p, now)\n",
			"\tif n.onDeliver != nil && n.stats.Delivered%1000 != 0 {\n\t\tn.onDeliver(p, now)\n"}},
		gates: []gate{digests,
			{pkg: "./internal/oracle", run: "FuzzProperties"},
			{pkg: "./internal/oracle", run: "TestMetricsAccountEveryDelivery"}},
	},
	{
		name:   "incast-raw-seed",
		reason: "BuildLeafIncast hands the arrivals the raw seed, so the run draws on its seed without the engine seeing it",
		edits: []edit{{"internal/experiments/datacenter.go",
			"end*3/4, end, n.Eng.Seed())",
			"end*3/4, end, seed)"}},
		gates: []gate{{pkg: "./internal/runner", run: "TestSeedFreeMeansSeedIndependent"}},
	},

	// The packet pool as the conservation ledger.
	{
		name:   "sink-release-dropped",
		reason: "the sink never returns a delivered packet to the pool",
		edits: []edit{{"internal/endnode/node.go",
			"\tn.pool.Release(p) // sunk: metrics hook above was the last reader\n",
			""}},
		gates: []gate{digests, zeroAlloc},
	},
	{
		name:   "drop-handler-release-dropped",
		reason: "a packet condemned by a drop-policy link flap is refunded but never returned to the pool",
		edits: []edit{
			{"internal/network/network.go",
				"nd.RefundCredit(p.Dst, p.Size); n.pool.Release(p) }",
				"nd.RefundCredit(p.Dst, p.Size) }"},
			{"internal/network/network.go",
				"sw.RefundCredit(port, p.Dst, p.Size); n.pool.Release(p) }",
				"sw.RefundCredit(port, p.Dst, p.Size) }"}},
		gates: []gate{{pkg: "./internal/cli", run: "TestSimGolden"}},
	},
	{
		name:   "source-discards-packet",
		reason: "the generator takes a packet from the pool and discards it before taking the one it offers",
		edits: []edit{{"internal/traffic/traffic.go",
			"\t\tp := g.pool.NewData(g.ids, f.Src, dst, f.ID, sz, now)\n",
			"\t\t_ = g.pool.NewData(g.ids, f.Src, dst, f.ID, sz, now)\n\t\tp := g.pool.NewData(g.ids, f.Src, dst, f.ID, sz, now)\n"}},
		gates: []gate{digests},
	},

	// Replay from (seed, config): constructs the engine must not use,
	// each written where it changes a run.
	{
		name:   "arbiter-wallclock-tiebreak",
		reason: "an input granted by two outputs keeps the one the wall clock picks, not the one nearer its accept pointer",
		edits: []edit{
			{"internal/arbiter/islip.go",
				"\t\"math/bits\"\n)\n",
				"\t\"math/bits\"\n\t\"time\"\n)\n"},
			{"internal/arbiter/islip.go",
				"if grantedIn&(1<<pick) == 0 || s.closerOutput(pick, o, s.granted[pick]) {\n",
				"if grantedIn&(1<<pick) == 0 || time.Now().UnixNano()%2 == 0 {\n"}},
		gates: []gate{digests, rerun},
	},
	{
		name:   "traffic-global-rand",
		reason: "a uniform-destination flow draws its destination from the process-global math/rand stream",
		edits: []edit{{"internal/traffic/traffic.go",
			"\t\t\tdst = f.rng.Intn(len(g.nodes) - 1)\n",
			"\t\t\tdst = rand.Intn(len(g.nodes) - 1)\n"}},
		gates: []gate{digests, rerun},
	},
	{
		name:   "metrics-flows-map-order",
		reason: "Collector.Flows lists the flows in the order its id index map ranges, unsorted",
		edits: []edit{{"internal/metrics/metrics.go",
			"\tfor i := range c.recs {\n\t\tif c.recs[i].bins != nil {\n\t\t\tids = append(ids, c.recs[i].id)\n\t\t}\n\t}\n\tsort.Ints(ids)\n",
			"\tfor id, i := range c.index {\n\t\tif c.recs[i].bins != nil {\n\t\t\tids = append(ids, id)\n\t\t}\n\t}\n\t_ = sort.Ints\n"}},
	},
	{
		name:   "engine-event-goroutine",
		reason: "the engine runs each wheel event on a goroutine of its own and does not wait for it",
		edits: []edit{{"internal/sim/sim.go",
			"\t\te.queued--\n\t\tfn()\n",
			"\t\te.queued--\n\t\tgo fn()\n"}},
		gates: []gate{digests, rerun},
	},

	// The per-cycle hot path.
	{
		name:   "switch-tick-sprint",
		reason: "the switch's registered ticker formats the cycle number every cycle",
		edits: []edit{{"internal/switchfab/switch.go",
			"func (s *Switch) tick(now sim.Cycle) sim.Cycle {\n\ts.post(now)\n",
			"func (s *Switch) tick(now sim.Cycle) sim.Cycle {\n\t_ = fmt.Sprint(now)\n\ts.post(now)\n"}},
		gates: []gate{zeroAlloc},
	},
	{
		name:   "switch-arbitrate-escaping-closure",
		reason: "Switch.arbitrate rebinds each live port's crossbar-landing closure every cycle",
		edits: []edit{{"internal/switchfab/switch.go",
			"\t\tip := s.in[i]\n\t\tif ip.busyUntil > now {\n",
			"\t\tip := s.in[i]\n\t\tip.landFn = func() { ip.land() }\n\t\tif ip.busyUntil > now {\n"}},
		gates: []gate{zeroAlloc},
	},
	{
		name:   "wheel-event-heap-closure",
		reason: "Engine.At wraps each wheel event's function in a fresh heap closure instead of storing it in the slab node",
		edits: []edit{{"internal/sim/sim.go",
			"\te.free, ev.fn, ev.next = ev.next, fn, 0\n",
			"\te.free, ev.fn, ev.next = ev.next, func() { fn() }, 0\n"}},
		gates: []gate{zeroAlloc},
	},

	// Errors dropped on the durable write paths: each one shows only
	// on a failing disk, which the tests make through each writer's
	// file seam (Cache.create, the Scheduler's disk).
	{
		name:   "cache-put-close-unchecked",
		reason: "Cache.put drops tmp.Close's error and renames the entry into place even if the close failed",
		edits: []edit{{"internal/runner/cache.go",
			"\t_, err = tmp.Write(b)\n\tif cerr := tmp.Close(); err == nil {\n\t\terr = cerr\n\t}\n",
			"\t_, err = tmp.Write(b)\n\ttmp.Close()\n"}},
		gates: []gate{{pkg: "./internal/runner", run: "TestPutCloseFails"}},
	},
	{
		name:   "cache-put-rename-unchecked",
		reason: "Cache.put drops os.Rename's error, so a store whose entry never reached its path reads as done",
		edits: []edit{{"internal/runner/cache.go",
			"\t\terr = os.Rename(tmp.Name(), c.path(key))\n",
			"\t\tos.Rename(tmp.Name(), c.path(key))\n"}},
		gates: []gate{{pkg: "./internal/runner", run: "TestPutRenameFails"}},
	},
	{
		name:   "store-sync-unchecked",
		reason: "writeDurable drops tmp.Sync's error, so a spec file the disk never took reads as durable",
		edits: []edit{{"internal/campaign/store.go",
			"\tif err == nil {\n\t\terr = tmp.Sync()\n\t}\n",
			"\tif err == nil {\n\t\ttmp.Sync()\n\t}\n"}},
		gates: []gate{{pkg: "./internal/campaign", run: "TestWriteDurableSyncFails"}},
	},
	{
		name:   "store-dir-sync-unchecked",
		reason: "writeDurable drops the directory fsync's error, so a rename the disk never took reads as durable",
		edits: []edit{{"internal/campaign/store.go",
			"\tdefer df.Close()\n\treturn df.Sync()\n",
			"\tdefer df.Close()\n\tdf.Sync()\n\treturn nil\n"}},
		gates: []gate{{pkg: "./internal/campaign", run: "TestWriteDurableDirSyncFails"}},
	},
	{
		name:   "cancel-mark-unchecked",
		reason: "Scheduler.Cancel drops the cancel mark's write error and cancels a campaign a restart would resume",
		edits: []edit{{"internal/campaign/scheduler.go",
			"\tif err := s.disk.writeDurable(s.opt.Dir, id+\".cancel\", nil); err != nil {\n\t\treturn View{}, fmt.Errorf(\"campaign: writing cancel mark: %w\", err)\n\t}\n",
			"\t_ = s.disk.writeDurable(s.opt.Dir, id+\".cancel\", nil)\n"}},
		gates: []gate{{pkg: "./internal/campaign", run: "TestCancelMarkFails"}},
	},

	// Locks: the job queue, the lease board, the campaign scheduler.
	{
		name:   "scheduler-resume-unlocked",
		reason: "Scheduler.resume reads and writes the scheduler's state without its lock",
		edits: []edit{{"internal/campaign/scheduler.go",
			"func (s *Scheduler) resume() error {\n\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n",
			"func (s *Scheduler) resume() error {\n"}},
		gates: []gate{{pkg: "./internal/campaign", race: true}},
	},
	{
		name:   "queue-len-unlocked",
		reason: "Queue.Len reads the task list without the queue's lock",
		edits: []edit{{"internal/runner/queue.go",
			"func (q *Queue) Len() int {\n\tq.mu.Lock()\n\tdefer q.mu.Unlock()\n",
			"func (q *Queue) Len() int {\n"}},
		gates: []gate{{pkg: "./internal/runner", run: "TestQueue", race: true}},
	},
	{
		name:   "board-snapshot-double-lock",
		reason: "Board.Snapshot calls Workers, which takes Board.mu again, while holding it",
		edits: []edit{{"internal/dispatch/board.go",
			"\tb.mu.Lock()\n\tlive, leased, parked := b.liveWorkersLocked(b.now()), len(b.leases), 0\n",
			"\tb.mu.Lock()\n\t_ = b.Workers()\n\tlive, leased, parked := b.liveWorkersLocked(b.now()), len(b.leases), 0\n"}},
	},
	{
		name:   "board-drop-lease-unlocks",
		reason: "dropLeaseLocked releases the lock its callers hold around one delete",
		edits: []edit{{"internal/dispatch/board.go",
			"\tdelete(l.worker.active, l.id)\n",
			"\tb.mu.Unlock()\n\tdelete(l.worker.active, l.id)\n\tb.mu.Lock()\n"}},
		gates: []gate{{pkg: "./internal/dispatch", race: true}},
	},

	// Goroutines without a join.
	{
		name:   "worker-run-no-wait",
		reason: "Worker.Run returns without waiting for its slots, before their jobs are handed back",
		edits: []edit{{"internal/dispatch/worker.go",
			"\twg.Wait()\n\treturn nil // drained\n",
			"\treturn nil // drained\n"}},
		gates: []gate{{pkg: "./internal/dispatch", race: true}},
	},
	{
		name:   "serve-error-dropped",
		reason: "ccfit-serve's HTTP server goroutine drops Serve's error, so nothing ever receives from it",
		edits: []edit{{"cmd/ccfit-serve/main.go",
			"\tgo func() { serveErr <- srv.Serve(ln) }()\n",
			"\tgo func() { _ = srv.Serve(ln) }()\n"}},
		gates: []gate{{pkg: "./cmd/ccfit-serve", race: true}},
	},
	{
		name:   "cache-gc-no-done",
		reason: "ccfit-serve's cache-GC goroutine loses its <-ctx.Done() arm and never ends",
		edits: []edit{{"cmd/ccfit-serve/main.go",
			"\t\t\t\tcase <-ctx.Done():\n\t\t\t\t\treturn\n\t\t\t\t}\n",
			"\t\t\t\t}\n"}},
		gates: []gate{{pkg: "./cmd/ccfit-serve", race: true}},
	},
}
