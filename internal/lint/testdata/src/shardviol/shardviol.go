// Package shardviol seeds violations of the shard-escape half of the
// partition-safety rule. Its single file is
// declared a bridge file in bridgeScope, so the determinism rule's
// go-statement ban is lifted here — the time.Now below proves every
// OTHER determinism check still applies — and partition-safety
// polices the goroutines instead: workers must be join-scoped inline
// closures, may capture only sync plumbing, and never drain a mailbox
// off the barrier.
package shardviol

import (
	"sync"
	"sync/atomic"
	"time"
)

// Mailbox is a local stand-in for sim.Mailbox: partition-safety matches
// Drain by receiver type name.
type Mailbox struct{ q []int }

// Post records one cross-shard value.
func (m *Mailbox) Post(v int) { m.q = append(m.q, v) }

// Drain hands the queued values to f and clears the queue.
func (m *Mailbox) Drain(f func(int)) {
	for _, v := range m.q {
		f(v)
	}
	m.q = m.q[:0]
}

// Clock proves a bridge file keeps the rest of the determinism rules.
func Clock() int64 {
	return time.Now().UnixNano() // want determinism "time.Now"
}

// Escapes captures a shared counter: every worker mutates it.
func Escapes(shards []*Mailbox) {
	var wg sync.WaitGroup
	total := 0
	for i := range shards {
		wg.Add(1)
		go func(mb *Mailbox) {
			defer wg.Done()
			mb.Post(1)
			total++ // want partition-safety "captures total"
		}(shards[i])
	}
	wg.Wait()
	_ = total
}

// Unjoined spawns a worker nothing in this function waits for.
func Unjoined(mb *Mailbox) {
	go func(mb *Mailbox) { // want partition-safety "not joined inside Unjoined"
		mb.Post(1)
	}(mb)
}

// DrainOffBarrier drains on a worker instead of at the barrier.
func DrainOffBarrier(mb *Mailbox) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func(mb *Mailbox) {
		defer wg.Done()
		mb.Drain(func(int) {}) // want partition-safety "Drain inside a worker goroutine"
	}(mb)
	wg.Wait()
}

func runWorker(mb *Mailbox) { mb.Post(2) }

// NamedWorker hides the worker body behind a declared function.
func NamedWorker(mb *Mailbox) {
	var wg sync.WaitGroup
	wg.Add(1)
	go runWorker(mb) // want partition-safety "inline function literal"
	wg.Wait()
}

// CleanWindow is the channel-fed shape: per-shard workers fed by
// channels, joined before return, drains at the barrier only.
func CleanWindow(shards []*Mailbox) {
	var step sync.WaitGroup
	feed := make([]chan int, len(shards))
	for i := range shards {
		feed[i] = make(chan int, 1)
		step.Add(1)
		go func(mb *Mailbox, ch chan int) {
			defer step.Done()
			for v := range ch {
				mb.Post(v)
			}
		}(shards[i], feed[i])
	}
	for _, ch := range feed {
		ch <- 1
		close(ch)
	}
	step.Wait()
	for _, mb := range shards {
		mb.Drain(func(int) {})
	}
}

// ClaimWindow is the parallel-engine shape: workers pull shard indices
// off an atomic ticket and count what they finished on another, the
// shards they may claim arrive as a spawn-time parameter, every worker
// is joined before return, drains at the barrier only. Capturing the
// atomics is clean: they are shared on purpose and every access to them
// is ordered.
func ClaimWindow(shards []*Mailbox) {
	var (
		exit   sync.WaitGroup
		ticket atomic.Int64
		done   atomic.Int32
	)
	for w := 0; w < 2; w++ {
		exit.Add(1)
		go func(shards []*Mailbox) {
			defer exit.Done()
			for {
				i := int(ticket.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				shards[i].Post(i)
				done.Add(1)
			}
		}(shards)
	}
	exit.Wait()
	for _, mb := range shards {
		mb.Drain(func(int) {})
	}
}

// PlainTicket is ClaimWindow with the ticket demoted to a plain int:
// nothing orders the workers' accesses to it any more.
func PlainTicket(shards []*Mailbox) {
	var exit sync.WaitGroup
	ticket := 0
	for w := 0; w < 2; w++ {
		exit.Add(1)
		go func(shards []*Mailbox) {
			defer exit.Done()
			for {
				i := ticket // want partition-safety "captures ticket"
				ticket++
				if i >= len(shards) {
					return
				}
				shards[i].Post(i)
			}
		}(shards)
	}
	exit.Wait()
}

// CapturedShards lets the claim loop reach the shards by capture: the
// go statement no longer says which state the workers may touch.
func CapturedShards(shards []*Mailbox) {
	var (
		exit   sync.WaitGroup
		ticket atomic.Int64
	)
	for w := 0; w < 2; w++ {
		exit.Add(1)
		go func() {
			defer exit.Done()
			for {
				i := int(ticket.Add(1)) - 1
				if i >= len(shards) { // want partition-safety "captures shards"
					return
				}
				shards[i].Post(i)
			}
		}()
	}
	exit.Wait()
}

// DrainingClaimer drains the shard it claimed instead of leaving that
// to the barrier.
func DrainingClaimer(shards []*Mailbox) {
	var (
		exit   sync.WaitGroup
		ticket atomic.Int64
	)
	for w := 0; w < 2; w++ {
		exit.Add(1)
		go func(shards []*Mailbox) {
			defer exit.Done()
			for {
				i := int(ticket.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				shards[i].Drain(func(int) {}) // want partition-safety "Drain inside a worker goroutine"
			}
		}(shards)
	}
	exit.Wait()
}

// SuppressedCapture is the acknowledged exception shape: a reasoned
// line-level suppression on the capture site itself.
func SuppressedCapture(mb *Mailbox) {
	var wg sync.WaitGroup
	count := 0
	wg.Add(1)
	go func() {
		//lint:ignore partition-safety fixture: capture acknowledged with a reason
		count++
		wg.Done()
	}()
	wg.Wait()
	_ = count
}
