package memframe

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << maxClassBits, numClasses - 1},
		{1<<maxClassBits + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetPutReuses(t *testing.T) {
	p := new(Pool[float32])
	a := p.Get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100/128", len(a), cap(a))
	}
	a[0] = 42
	p.Put(a)
	// A differently-sized request from the same class must reuse the
	// recycled buffer — and see its stale contents.
	b := p.Get(70)
	if len(b) != 70 {
		t.Fatalf("Get(70): len %d", len(b))
	}
	if b[0] != 42 {
		t.Error("recycled buffer did not carry stale contents (not reused?)")
	}
	st := p.Stats()
	if st.Gets != 2 || st.News != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want Gets 2 News 1 Puts 1", st)
	}
}

func TestGetZeroAndOversized(t *testing.T) {
	p := new(Pool[byte])
	if s := p.Get(0); s != nil {
		t.Error("Get(0) should return nil")
	}
	huge := p.Get(1<<maxClassBits + 1)
	if len(huge) != 1<<maxClassBits+1 {
		t.Fatalf("oversized Get len %d", len(huge))
	}
	p.Put(huge)
	st := p.Stats()
	if st.Drops == 0 {
		t.Error("oversized Put should be dropped")
	}
}

func TestPutSmallDropped(t *testing.T) {
	p := new(Pool[byte])
	p.Put(make([]byte, 8))
	if st := p.Stats(); st.Drops != 1 {
		t.Errorf("tiny Put not dropped: %+v", st)
	}
	if s := p.Get(8); len(s) != 8 || cap(s) != 64 {
		t.Errorf("Get(8) = len %d cap %d, want fresh 8/64", len(s), cap(s))
	}
}

func TestPutFilesUnderCoveringClass(t *testing.T) {
	p := new(Pool[byte])
	p.Get(64) // one buffer outstanding: each class may keep one free buffer
	// Capacity 100 covers class 0 (64) but not class 1 (128): it must be
	// filed under class 0 so a Get(128) never receives it.
	p.Put(make([]byte, 100))
	b := p.Get(128)
	if cap(b) < 128 {
		t.Fatalf("Get(128) got cap %d", cap(b))
	}
	a := p.Get(64)
	if cap(a) != 100 {
		t.Errorf("Get(64) should reuse the cap-100 buffer, got cap %d", cap(a))
	}
}

// TestKeepBound: a class keeps at most the high-water mark of buffers
// outstanding at once; Puts beyond it (here, buffers the pool never
// handed out) are dropped.
func TestKeepBound(t *testing.T) {
	p := new(Pool[byte])
	held := make([][]byte, 3)
	for i := range held {
		held[i] = p.Get(64)
	}
	for _, s := range held {
		p.Put(s)
	}
	for i := 0; i < 5; i++ {
		p.Put(make([]byte, 64))
	}
	if st := p.Stats(); st.Drops != 5 {
		t.Errorf("drops = %d, want 5 (high-water mark 3)", st.Drops)
	}
	if got := len(p.classes[0]); got != 3 {
		t.Errorf("class 0 keeps %d free buffers, want 3", got)
	}
}

// TestKeepsWholeReturnedWorkingSet: a consumer that holds 64 buffers
// and returns them all gets all 64 back on its next round — the pool
// allocates nothing after the first.
func TestKeepsWholeReturnedWorkingSet(t *testing.T) {
	p := new(Pool[float32])
	round := func() {
		held := make([][]float32, 64)
		for i := range held {
			held[i] = p.Get(1000)
		}
		for _, s := range held {
			p.Put(s)
		}
	}
	round()
	round()
	if st := p.Stats(); st.News != 64 || st.Drops != 0 {
		t.Errorf("stats = %+v, want News 64 and Drops 0 after two rounds of 64", st)
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	p := new(Pool[float64])
	p.Put(p.Get(1000))
	allocs := testing.AllocsPerRun(100, func() {
		s := p.Get(1000)
		p.Put(s)
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Put allocates %.1f per run, want 0", allocs)
	}
}

func TestConcurrentUse(t *testing.T) {
	p := new(Pool[int32])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := p.Get(64 + g*100)
				for j := range s {
					s[j] = int32(g)
				}
				for _, v := range s {
					if v != int32(g) {
						t.Errorf("buffer shared between goroutines")
						return
					}
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Gets != 8*200 {
		t.Errorf("gets = %d, want %d", st.Gets, 8*200)
	}
	if st.News > st.Gets/4 {
		t.Errorf("news = %d of %d gets — pool not recycling under concurrency", st.News, st.Gets)
	}
}

func TestSetAggregatesStats(t *testing.T) {
	s := NewSet()
	s.F32.Put(s.F32.Get(100))
	s.F64.Put(s.F64.Get(100))
	s.U8.Put(s.U8.Get(100))
	st := s.Stats()
	if st.Gets != 3 || st.Puts != 3 || st.News != 3 {
		t.Errorf("aggregate stats = %+v", st)
	}
}
