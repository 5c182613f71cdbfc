package task

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// graphSpecs decodes fuzz input into at most 64 tasks with in, out and inout
// dependences over at most 8 addresses. Each task takes two bytes: two
// (address, kind) pairs, a kind of 3 meaning none, a priority, and a flag
// that makes the spawner drain the pool before spawning the task, so that
// its predecessors have all finished when it registers.
func graphSpecs(data []byte) (specs []dagSpec, drain []bool) {
	if len(data) == 0 {
		return nil, nil
	}
	ncells := 1 + int(data[0]%8)
	data = data[1:]
	for len(data) >= 2 && len(specs) < 64 {
		a, b := data[0], data[1]
		data = data[2:]
		var s dagSpec
		for _, d := range [2][2]byte{{a & 7, a >> 3 & 3}, {a >> 5, b & 3}} {
			if d[1] != 3 {
				s.deps = append(s.deps, Dep{Addr: uintptr(1 + int(d[0])%ncells), Kind: DepKind(d[1])})
			}
		}
		s.priority = int(b >> 3 & 3)
		s.work = int(b>>5) * 40
		specs = append(specs, s)
		drain = append(drain, b&4 != 0)
	}
	return specs, drain
}

// graphPass runs one pass over a 2-thread pool while tid 1 executes tasks
// until run returns and the pool is empty; run drives tid 0.
func graphPass(p *Pool, run func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() || p.Outstanding() != 0 {
			if !p.RunOne(1) {
				runtime.Gosched()
			}
		}
	}()
	run()
	p.Quiesce(0)
	done.Store(true)
	wg.Wait()
}

// FuzzTaskgraphReplay records a DAG decoded from the input on two threads
// and replays it three times. In every pass each task must run exactly
// once and each dependence edge must order its tasks, also an edge whose
// predecessor had finished before the successor registered: the record
// drops no such edge.
func FuzzTaskgraphReplay(f *testing.F) {
	f.Add([]byte{3, 0x18, 0x07, 0x19, 0x03, 0x08, 0x1f, 0x3a, 0x64})
	f.Add([]byte{0, 0x00, 0x04, 0x08, 0x04, 0x00, 0x07, 0x08, 0x04})
	f.Add([]byte{7, 0xff, 0xff, 0x01, 0x02, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef})
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, drain := graphSpecs(data)
		p := NewPool(2)
		root := NewRoot(p)
		var g Graph
		runs := make([]atomic.Int32, len(specs))
		start := make([]int64, len(specs))
		end := make([]int64, len(specs))
		var clock atomic.Int64
		for pass := 0; pass < 4; pass++ {
			for k := range specs {
				runs[k].Store(0)
				start[k], end[k] = 0, 0
			}
			graphPass(p, func() {
				if pass > 0 {
					p.Replay(0, root, nil, &g)
					p.WaitChildren(0, root)
					return
				}
				g.BeginRecord(root)
				for k, s := range specs {
					if drain[k] {
						p.Quiesce(0)
					}
					p.SpawnOpt(0, root, nil, SpawnOpts{Priority: s.priority, Deps: s.deps}, func(*Unit) {
						runs[k].Add(1)
						atomic.StoreInt64(&start[k], clock.Add(1))
						for i := 0; i < s.work; i++ {
							runtime.Gosched()
						}
						atomic.StoreInt64(&end[k], clock.Add(1))
					})
				}
				g.EndRecord(root)
			})
			if !g.Recorded() || len(g.nodes) != len(specs) {
				t.Fatalf("pass %d: graph recorded %v with %d nodes, want %d", pass, g.Recorded(), len(g.nodes), len(specs))
			}
			for k := range specs {
				if n := runs[k].Load(); n != 1 {
					t.Fatalf("pass %d: task %d ran %d times", pass, k, n)
				}
			}
			checkDAG(t, specs, start, end, fmt.Sprintf("pass %d", pass))
		}
		if root.life.Load() != 1 || p.Outstanding() != 0 {
			t.Fatalf("after the replays: root life %d, outstanding %d", root.life.Load(), p.Outstanding())
		}
	})
}

// TestTaskgraphLogicalEdges pins the rule the fuzzer checks at random: a
// chain whose every link registered after its predecessor had finished
// still replays as a chain.
func TestTaskgraphLogicalEdges(t *testing.T) {
	p := NewPool(1)
	root := NewRoot(p)
	var g Graph
	var order []int
	g.BeginRecord(root)
	for k := 0; k < 4; k++ {
		p.SpawnOpt(0, root, nil, SpawnOpts{Deps: []Dep{{Addr: 1, Kind: DepInOut}}}, func(*Unit) {
			order = append(order, k)
		})
		p.Quiesce(0) // the next link registers after this one finished
	}
	g.EndRecord(root)
	if !g.Recorded() || len(g.succ) != 3 {
		t.Fatalf("recorded %v with %d edges, want a frozen chain of 3", g.Recorded(), len(g.succ))
	}
	order = order[:0]
	p.Replay(0, root, nil, &g)
	if got := p.queued.Load(); got != 1 {
		t.Fatalf("replay queued %d roots, want 1", got)
	}
	p.WaitChildren(0, root)
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("replayed order %v, want [0 1 2 3]", order)
	}
}
