package task

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Randomized-DAG conformance suite: seeded graphs of tasks with random
// depend clauses over a small set of shared cells are executed on 1..8
// threads, and the observed execution order is checked against a
// topological-order oracle that replays the registration semantics
// sequentially (last-writer / readers-since per address). Spawning proceeds
// concurrently with execution, so registration races completion — exactly
// the window the dephash's addSuccessor/releaseSuccessors protocol has to
// close. CI runs this file under -race via -run 'TestTaskDAG'.

// dagSpec is one generated task: its depend list, priority, and a work
// knob so task durations vary.
type dagSpec struct {
	deps     []Dep
	priority int
	work     int
}

// genDAG builds a reproducible random task set over ncells addresses.
func genDAG(rnd *rand.Rand, ntasks, ncells int) []dagSpec {
	specs := make([]dagSpec, ntasks)
	for k := range specs {
		nd := rnd.Intn(4) // 0..3 dependences
		seen := map[uintptr]bool{}
		for d := 0; d < nd; d++ {
			addr := uintptr(1 + rnd.Intn(ncells))
			if seen[addr] {
				continue // one dependence per address per task
			}
			seen[addr] = true
			kind := DepKind(rnd.Intn(3))
			specs[k].deps = append(specs[k].deps, Dep{Addr: addr, Kind: kind})
		}
		if rnd.Intn(4) == 0 {
			specs[k].priority = 1 + rnd.Intn(3)
		}
		specs[k].work = rnd.Intn(200)
	}
	return specs
}

// oracleEdges replays the dephash registration rules sequentially and
// returns every (pred, succ) pair the runtime must enforce.
func oracleEdges(specs []dagSpec) [][2]int {
	type cellState struct {
		lastOut int
		lastIns []int
	}
	cells := map[uintptr]*cellState{}
	var edges [][2]int
	addEdge := func(pred, succ int) {
		if pred >= 0 && pred != succ {
			edges = append(edges, [2]int{pred, succ})
		}
	}
	for k, s := range specs {
		for _, d := range s.deps {
			st := cells[d.Addr]
			if st == nil {
				st = &cellState{lastOut: -1}
				cells[d.Addr] = st
			}
			switch d.Kind {
			case DepIn:
				addEdge(st.lastOut, k)
				st.lastIns = append(st.lastIns, k)
			default:
				addEdge(st.lastOut, k)
				for _, r := range st.lastIns {
					addEdge(r, k)
				}
				st.lastIns = st.lastIns[:0]
				st.lastOut = k
			}
		}
	}
	return edges
}

// runDAG executes specs on a pool of the given size, spawning from the test
// goroutine — which owns tid 0's deque and free lists per the single-owner
// contract — while worker goroutines drain tids 1..threads-1 (and steal from
// tid 0) concurrently. It returns per-task start and end stamps from one
// global logical clock. The pool may be shared across calls (the reuse-storm
// mode re-runs graphs on one pool to force Unit/dephash recycling).
func runDAG(t *testing.T, p *Pool, specs []dagSpec, threads int) (start, end []int64) {
	t.Helper()
	if p == nil {
		p = NewPool(threads)
	}
	return runDAGUnder(t, p, NewRoot(p), specs, threads)
}

// runDAGUnder is runDAG with the tasks spawned as children of root.
func runDAGUnder(t *testing.T, p *Pool, root *Unit, specs []dagSpec, threads int) (start, end []int64) {
	t.Helper()
	start = make([]int64, len(specs))
	end = make([]int64, len(specs))
	var clock atomic.Int64
	var spawned atomic.Bool
	var wg sync.WaitGroup
	for tid := 1; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				if p.RunOne(tid) {
					continue
				}
				if spawned.Load() && p.Outstanding() == 0 {
					return
				}
				runtime.Gosched()
			}
		}(tid)
	}
	sink := 0.0
	for k, s := range specs {
		k, s := k, s
		p.SpawnOpt(0, root, nil, SpawnOpts{Priority: s.priority, Deps: s.deps}, func(*Unit) {
			atomic.StoreInt64(&start[k], clock.Add(1))
			x := 1.0
			for i := 0; i < s.work; i++ {
				x += x * 1e-9
			}
			if x < 0 {
				sink = x // defeat dead-code elimination; never taken
			}
			atomic.StoreInt64(&end[k], clock.Add(1))
		})
	}
	spawned.Store(true)
	p.Quiesce(0)
	wg.Wait()
	_ = sink
	return start, end
}

// checkDAG asserts every task ran and every oracle edge was respected.
func checkDAG(t *testing.T, specs []dagSpec, start, end []int64, label string) {
	t.Helper()
	for k := range specs {
		if start[k] == 0 || end[k] == 0 || end[k] <= start[k] {
			t.Fatalf("%s: task %d stamps (%d,%d): not executed exactly once", label, k, start[k], end[k])
		}
	}
	for _, e := range oracleEdges(specs) {
		pred, succ := e[0], e[1]
		if end[pred] >= start[succ] {
			t.Fatalf("%s: dependence violated: task %d (end %d) must precede task %d (start %d)\npred deps %v\nsucc deps %v",
				label, pred, end[pred], succ, start[succ], specs[pred].deps, specs[succ].deps)
		}
	}
}

// TestTaskDAGConformance is the main suite: 50 seeded graphs × 4 thread
// counts = 200 randomized runs checked against the oracle.
func TestTaskDAGConformance(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		t.Run(fmt.Sprintf("threads-%d", threads), func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				rnd := rand.New(rand.NewSource(int64(seed)*1009 + int64(threads)))
				specs := genDAG(rnd, 10+rnd.Intn(56), 1+rnd.Intn(8))
				start, end := runDAG(t, nil, specs, threads)
				checkDAG(t, specs, start, end, fmt.Sprintf("seed %d threads %d", seed, threads))
			}
		})
	}
}

// TestTaskDAGDense stresses the pathological shapes: every task touching
// the same single cell (maximum fan-in through the reader sets), and long
// inout chains with interleaved priorities.
func TestTaskDAGDense(t *testing.T) {
	for seed := 0; seed < 10; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		specs := make([]dagSpec, 48)
		for k := range specs {
			kind := DepIn
			if rnd.Intn(3) == 0 {
				kind = DepInOut
			}
			specs[k] = dagSpec{
				deps:     []Dep{{Addr: 1, Kind: kind}},
				priority: rnd.Intn(3),
				work:     rnd.Intn(100),
			}
		}
		start, end := runDAG(t, nil, specs, 4)
		checkDAG(t, specs, start, end, fmt.Sprintf("dense seed %d", seed))
	}
}

// TestTaskDAGReuseStorm is the recycling assertion mode: many generations
// of random graphs run back-to-back on ONE pool, so every generation after
// the first executes almost entirely on recycled Units and dephash states.
// The oracle check proves no use-after-recycle: a stale successor edge, a
// lost epoch bump, or a double-free would surface as a dependence violation,
// a task running twice, or a hang. Quiesce between generations plays the
// role of the team barrier between respawn storms.
func TestTaskDAGReuseStorm(t *testing.T) {
	gens := 30
	if testing.Short() {
		gens = 8
	}
	for _, threads := range []int{1, 2, 4, 8} {
		threads := threads
		t.Run(fmt.Sprintf("threads-%d", threads), func(t *testing.T) {
			p := NewPool(threads)
			for gen := 0; gen < gens; gen++ {
				rnd := rand.New(rand.NewSource(int64(gen)*7919 + int64(threads)))
				specs := genDAG(rnd, 20+rnd.Intn(40), 1+rnd.Intn(6))
				start, end := runDAG(t, p, specs, threads)
				checkDAG(t, specs, start, end, fmt.Sprintf("gen %d threads %d", gen, threads))
			}
			if got := p.Outstanding(); got != 0 {
				t.Fatalf("outstanding %d after final generation", got)
			}
		})
	}
}

// TestTaskDAGReuseStormAcrossRegions is the reuse storm as a 2-thread team
// meets it region after region: thread 0 spawns every generation under one
// implicit-task root that ReuseRoot hands back between generations, and
// thread 1 retires much of the work, so units travel back to the spawner
// through the transfer list and each generation registers in the dephash
// the previous one left drained.
func TestTaskDAGReuseStormAcrossRegions(t *testing.T) {
	gens := 40
	if testing.Short() {
		gens = 10
	}
	p := NewPool(2)
	root := NewRoot(p)
	for gen := 0; gen < gens; gen++ {
		if !p.ReuseRoot(0, root) {
			t.Fatalf("gen %d: idle root refused", gen)
		}
		rnd := rand.New(rand.NewSource(int64(gen)*104729 + 2))
		specs := genDAG(rnd, 200+rnd.Intn(400), 1+rnd.Intn(12))
		start, end := runDAGUnder(t, p, root, specs, 2)
		checkDAG(t, specs, start, end, fmt.Sprintf("region %d", gen))
	}
	if got := p.Outstanding(); got != 0 {
		t.Fatalf("outstanding %d after final region", got)
	}
}

// TestUnitsReturnToSpawner: tasks spawned on thread 0 and retired on thread
// 1 come back to thread 0 through the transfer list, so a steady
// producer/consumer cycle allocates no Units.
func TestUnitsReturnToSpawner(t *testing.T) {
	p := NewPool(2)
	root := NewRoot(p)
	fn := func(*Unit) {}
	cycle := func() {
		for i := 0; i < 200; i++ {
			p.Spawn(0, root, nil, fn)
		}
		for p.RunOne(1) {
		}
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Errorf("spawn on thread 0, retire on thread 1: %v allocs per 200 tasks, want 0", avg)
	}
}

// TestReuseRootRefuses: a root whose child's body panicked keeps that child
// live forever and must not be reused, nor may a root of another pool; an
// idle root is reused with its dephash drained.
func TestReuseRootRefuses(t *testing.T) {
	p := NewPool(1)
	root := NewRoot(p)
	deps := []Dep{{Addr: 1, Kind: DepInOut}}
	p.SpawnOpt(0, root, nil, SpawnOpts{Deps: deps}, func(*Unit) { panic("task body") })
	func() {
		defer func() { _ = recover() }()
		p.RunOne(0)
	}()
	if p.ReuseRoot(0, root) {
		t.Fatal("root with a child that never finished was reused")
	}
	if root.depmap.used != 1 {
		t.Fatalf("refused root's dephash holds %d addresses, want 1 (untouched)", root.depmap.used)
	}
	q := NewPool(1)
	if q.ReuseRoot(0, NewRoot(p)) {
		t.Fatal("root of another pool was reused")
	}
	idle := NewRoot(q)
	q.SpawnOpt(0, idle, nil, SpawnOpts{Deps: deps}, func(*Unit) {})
	q.Quiesce(0)
	if !q.ReuseRoot(0, idle) {
		t.Fatal("idle root refused")
	}
	if idle.depmap.used != 0 {
		t.Fatalf("reused root's dephash holds %d addresses, want 0", idle.depmap.used)
	}
}

// TestHandleSurvivesRecycle pins the Handle/epoch contract directly: spawn,
// complete, and respawn through the same recycled Unit, and check the stale
// handle still reads done while the live one tracks the new incarnation.
func TestHandleSurvivesRecycle(t *testing.T) {
	p := NewPool(1)
	root := NewRoot(p)
	h1 := p.Spawn(0, root, nil, func(*Unit) {})
	p.Quiesce(0)
	if !h1.Done() {
		t.Fatal("handle not done after quiesce")
	}
	blocked := true
	h2 := p.Spawn(0, root, nil, func(*Unit) { blocked = false })
	if h2.u != h1.u {
		t.Skip("unit was not recycled; epoch path not exercised")
	}
	if h2.epoch == h1.epoch {
		t.Fatal("recycled incarnation reused the epoch")
	}
	if h2.Done() {
		t.Fatal("fresh incarnation reads done through the new handle")
	}
	if !h1.Done() {
		t.Fatal("stale handle must stay done across recycling")
	}
	p.Quiesce(0)
	if blocked || !h2.Done() {
		t.Fatal("second incarnation did not run")
	}
}
