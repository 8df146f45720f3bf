package world

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMVStoreReadAt(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 0, Value{0})
	m.WriteAt(1, 5, Value{5})
	m.WriteAt(1, 10, Value{10})

	cases := []struct {
		seq  uint64
		want float64
		ok   bool
	}{
		{0, 0, true},
		{3, 0, true},
		{5, 5, true},
		{7, 5, true},
		{10, 10, true},
		{100, 10, true},
	}
	for _, c := range cases {
		v, ok := m.ReadAt(1, c.seq)
		if ok != c.ok || (ok && v[0] != c.want) {
			t.Fatalf("ReadAt(1, %d) = %v, %v; want %v", c.seq, v, ok, c.want)
		}
	}
	if _, ok := m.ReadAt(2, 100); ok {
		t.Fatal("ReadAt of unknown object succeeded")
	}
}

func TestMVStoreOutOfOrderWrites(t *testing.T) {
	// The Incomplete World Model delivers actions out of serial order;
	// the chain must stay sorted regardless of insertion order.
	m := NewMVStore()
	m.WriteAt(1, 10, Value{10})
	m.WriteAt(1, 5, Value{5})
	m.WriteAt(1, 0, Value{0})
	if v, _ := m.ReadAt(1, 7); v[0] != 5 {
		t.Fatalf("ReadAt(7) = %v, want 5", v)
	}
	if v, seq, _ := m.Latest(1); v[0] != 10 || seq != 10 {
		t.Fatalf("Latest = %v @ %d", v, seq)
	}
	// An older write arriving after a newer one must NOT become latest —
	// the Thomas-write-rule behaviour falls out of the chain structure.
	m.WriteAt(1, 7, Value{7})
	if v, seq, _ := m.Latest(1); v[0] != 10 || seq != 10 {
		t.Fatalf("Latest after late old write = %v @ %d", v, seq)
	}
}

func TestMVStoreIdempotentRedelivery(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 5, Value{5})
	m.WriteAt(1, 5, Value{55}) // redelivery replaces
	if m.Versions() != 1 {
		t.Fatalf("Versions = %d, want 1", m.Versions())
	}
	if v, _ := m.ReadAt(1, 5); v[0] != 55 {
		t.Fatalf("ReadAt = %v, want 55", v)
	}
}

func TestMVStoreSeedAndLatestState(t *testing.T) {
	init := NewState()
	init.Set(1, Value{1})
	init.Set(2, Value{2})
	m := NewMVStore()
	m.Seed(init)
	m.WriteAt(1, 3, Value{30})
	s := m.LatestState()
	if v, _ := s.Get(1); v[0] != 30 {
		t.Fatalf("LatestState obj 1 = %v", v)
	}
	if v, _ := s.Get(2); v[0] != 2 {
		t.Fatalf("LatestState obj 2 = %v", v)
	}
	if !m.IDs().Equal(NewIDSet(1, 2)) {
		t.Fatalf("IDs = %v", m.IDs())
	}
	if !m.Known(1) || m.Known(9) {
		t.Fatal("Known wrong")
	}
	if m.LastWriter(1) != 3 || m.LastWriter(2) != 0 || m.LastWriter(9) != 0 {
		t.Fatal("LastWriter wrong")
	}
}

func TestMVStorePruneBelow(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 0, Value{0})
	m.WriteAt(1, 5, Value{5})
	m.WriteAt(1, 10, Value{10})
	m.WriteAt(2, 0, Value{100})
	m.PruneBelow(7)
	// Object 1: versions 0 and 5 collapse into one at seq 7.
	if m.Versions() != 3 {
		t.Fatalf("Versions = %d, want 3", m.Versions())
	}
	if v, ok := m.ReadAt(1, 7); !ok || v[0] != 5 {
		t.Fatalf("ReadAt(1,7) after prune = %v, %v", v, ok)
	}
	if v, ok := m.ReadAt(1, 20); !ok || v[0] != 10 {
		t.Fatalf("ReadAt(1,20) after prune = %v, %v", v, ok)
	}
	// Object 2 has a single version; prune must keep it readable.
	if v, ok := m.ReadAt(2, 100); !ok || v[0] != 100 {
		t.Fatalf("ReadAt(2) after prune = %v, %v", v, ok)
	}
}

func TestMVStoreGetReaderInterface(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 2, Value{42})
	var r Reader = m
	v, ok := r.Get(1)
	if !ok || v[0] != 42 {
		t.Fatalf("Reader.Get = %v, %v", v, ok)
	}
}

// TestMVStoreMatchesSerialReplayProperty: writing a random history in a
// random delivery order must yield the same ReadAt answers as writing it
// in serial order.
func TestMVStoreMatchesSerialReplayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type w struct {
			id  ObjectID
			seq uint64
			val float64
		}
		var hist []w
		used := map[[2]uint64]bool{}
		for i := 0; i < 60; i++ {
			id := ObjectID(rng.Intn(5))
			seq := uint64(rng.Intn(40))
			if used[[2]uint64{uint64(id), seq}] {
				continue
			}
			used[[2]uint64{uint64(id), seq}] = true
			hist = append(hist, w{id, seq, rng.Float64()})
		}
		serial := NewMVStore()
		for _, x := range hist {
			serial.WriteAt(x.id, x.seq, Value{x.val})
		}
		shuffled := NewMVStore()
		perm := rng.Perm(len(hist))
		for _, i := range perm {
			x := hist[i]
			shuffled.WriteAt(x.id, x.seq, Value{x.val})
		}
		for probe := 0; probe < 50; probe++ {
			id := ObjectID(rng.Intn(5))
			at := uint64(rng.Intn(45))
			v1, ok1 := serial.ReadAt(id, at)
			v2, ok2 := shuffled.ReadAt(id, at)
			if ok1 != ok2 {
				return false
			}
			if ok1 && !v1.Equal(v2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMVStorePruneInvariantProperty: pruning must not change any ReadAt
// at or above the prune point.
func TestMVStorePruneInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMVStore()
		ref := NewMVStore()
		for i := 0; i < 80; i++ {
			id := ObjectID(rng.Intn(6))
			seq := uint64(rng.Intn(50))
			val := Value{rng.Float64()}
			m.WriteAt(id, seq, val)
			ref.WriteAt(id, seq, val)
		}
		cut := uint64(rng.Intn(50))
		m.PruneBelow(cut)
		for probe := 0; probe < 60; probe++ {
			id := ObjectID(rng.Intn(6))
			at := cut + uint64(rng.Intn(20))
			v1, ok1 := m.ReadAt(id, at)
			v2, ok2 := ref.ReadAt(id, at)
			if ok1 != ok2 || (ok1 && !v1.Equal(v2)) {
				return false
			}
		}
		return m.Versions() <= ref.Versions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fullScanPruneBelow is the PruneBelow the multi-version set replaced:
// every chain the store holds is searched on every call.
func fullScanPruneBelow(m *MVStore, seq uint64) {
	for id, chain := range m.chains {
		i := sort.Search(len(chain), func(i int) bool { return chain[i].seq > seq })
		if i <= 1 {
			continue
		}
		kept := make([]version, 0, len(chain)-i+1)
		kept = append(kept, version{seq: seq, val: chain[i-1].val})
		kept = append(kept, chain[i:]...)
		m.chains[id] = kept
	}
}

// checkMulti asserts the multi-version set lists exactly the objects
// whose chain holds more than one version, each once.
func checkMulti(t *testing.T, m *MVStore) {
	t.Helper()
	listed := map[ObjectID]bool{}
	for _, id := range m.multi {
		if listed[id] {
			t.Fatalf("object %d listed twice in %v", id, m.multi)
		}
		listed[id] = true
		if len(m.chains[id]) < 2 {
			t.Fatalf("object %d listed with %d versions", id, len(m.chains[id]))
		}
	}
	for id, chain := range m.chains {
		if len(chain) > 1 && !listed[id] {
			t.Fatalf("object %d holds %d versions but is not listed", id, len(chain))
		}
	}
}

// TestMVStoreIncrementalPruneMatchesFullScan runs random WriteAt,
// PruneBelow and TruncateAbove sequences — rewrites after truncation
// included — against a store pruned by the full scan, and requires
// identical version chains, ReadAt answers, Versions and IDs throughout.
func TestMVStoreIncrementalPruneMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := NewMVStore(), NewMVStore()
		const objects = 12
		var floor, top uint64 // prune floor; highest seq written
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 6:
				id := ObjectID(rng.Intn(objects))
				seq := floor + uint64(rng.Intn(30))
				val := Value{rng.Float64()}
				got.WriteAt(id, seq, val)
				ref.WriteAt(id, seq, val)
				top = max(top, seq)
			case k < 9:
				floor += uint64(rng.Intn(8))
				top = max(top, floor)
				got.PruneBelow(floor)
				fullScanPruneBelow(ref, floor)
			default:
				cut := floor + uint64(rng.Intn(int(top-floor)+1))
				got.TruncateAbove(cut)
				ref.TruncateAbove(cut)
				top = cut
			}
			checkMulti(t, got)
			for id := ObjectID(0); id < objects; id++ {
				gc, rc := got.chains[id], ref.chains[id]
				if len(gc) != len(rc) {
					t.Fatalf("seed %d op %d: object %d chain %v, full scan %v", seed, op, id, gc, rc)
				}
				for i := range gc {
					if gc[i].seq != rc[i].seq || !gc[i].val.Equal(rc[i].val) {
						t.Fatalf("seed %d op %d: object %d chain %v, full scan %v", seed, op, id, gc, rc)
					}
				}
				for at := floor; at <= top+1; at++ {
					v1, ok1 := got.ReadAt(id, at)
					v2, ok2 := ref.ReadAt(id, at)
					if ok1 != ok2 || (ok1 && !v1.Equal(v2)) {
						t.Fatalf("seed %d op %d: ReadAt(%d, %d) = %v %v, full scan %v %v", seed, op, id, at, v1, ok1, v2, ok2)
					}
				}
			}
			if got.Versions() != ref.Versions() || !got.IDs().Equal(ref.IDs()) {
				t.Fatalf("seed %d op %d: %d versions of %v, full scan %d of %v",
					seed, op, got.Versions(), got.IDs(), ref.Versions(), ref.IDs())
			}
		}
	}
}

// TestMVStoreMultiSetBounded cycles truncate and rewrite on the same
// objects: the multi-version set must never list an object twice nor
// outgrow the objects that hold several versions.
func TestMVStoreMultiSetBounded(t *testing.T) {
	m := NewMVStore()
	for id := ObjectID(0); id < 8; id++ {
		m.WriteAt(id, 0, Value{0})
	}
	for cycle := uint64(1); cycle <= 200; cycle++ {
		base := cycle * 10
		for id := ObjectID(0); id < 8; id++ {
			m.WriteAt(id, base+1, Value{1})
			m.WriteAt(id, base+2, Value{2})
		}
		checkMulti(t, m)
		if len(m.multi) != 8 {
			t.Fatalf("cycle %d: %d objects listed, want 8", cycle, len(m.multi))
		}
		m.TruncateAbove(base) // a boot fence: the rewritten suffix goes
		checkMulti(t, m)
		m.PruneBelow(base)
		checkMulti(t, m)
		if len(m.multi) != 0 || m.Versions() != 8 {
			t.Fatalf("cycle %d: %d listed, %d versions after fence and prune", cycle, len(m.multi), m.Versions())
		}
	}
	if cap(m.multi) > 16 {
		t.Fatalf("multi-version set grew to capacity %d over truncate/rewrite cycles", cap(m.multi))
	}
}
