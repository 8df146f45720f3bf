package world

import "testing"

func TestTxReadYourWrites(t *testing.T) {
	s := NewState()
	s.Set(1, Value{1})
	tx := NewTx(StateView{S: s})
	v, ok := tx.Read(1)
	if !ok || v[0] != 1 {
		t.Fatalf("Read = %v, %v", v, ok)
	}
	tx.Write(1, Value{2})
	v, _ = tx.Read(1)
	if v[0] != 2 {
		t.Fatalf("read-your-writes failed: %v", v)
	}
	// The underlying state is untouched until the caller applies writes.
	if sv, _ := s.Get(1); sv[0] != 1 {
		t.Fatal("Tx wrote through to the state")
	}
}

func TestTxTracksSets(t *testing.T) {
	s := NewState()
	s.Set(1, Value{1})
	s.Set(2, Value{2})
	tx := NewTx(StateView{S: s})
	tx.Read(1)
	tx.Read(2)
	tx.Write(3, Value{3})
	if !tx.ReadSet().Equal(NewIDSet(1, 2, 3)) {
		t.Fatalf("ReadSet = %v (writes must be included per RS ⊇ WS)", tx.ReadSet())
	}
	if !tx.WriteSet().Equal(NewIDSet(3)) {
		t.Fatalf("WriteSet = %v", tx.WriteSet())
	}
}

func TestTxWriteCollapsing(t *testing.T) {
	tx := NewTx(StateView{S: NewState()})
	tx.Write(1, Value{1})
	tx.Write(2, Value{2})
	tx.Write(1, Value{10})
	w := tx.Writes()
	if len(w) != 2 {
		t.Fatalf("Writes = %v, want 2 collapsed records", w)
	}
	if w[0].ID != 1 || w[0].Val[0] != 10 {
		t.Fatalf("collapsed write = %v", w[0])
	}
	if w[1].ID != 2 || w[1].Val[0] != 2 {
		t.Fatalf("second write = %v", w[1])
	}
}

func TestTxMissedReads(t *testing.T) {
	tx := NewTx(StateView{S: NewState()})
	if _, ok := tx.Read(7); ok {
		t.Fatal("read of unknown object succeeded")
	}
	if len(tx.Missed()) != 1 || tx.Missed()[0] != 7 {
		t.Fatalf("Missed = %v", tx.Missed())
	}
	// A write makes the object readable within the tx and it is no longer
	// missed on subsequent reads.
	tx.Write(7, Value{1})
	if _, ok := tx.Read(7); !ok {
		t.Fatal("read after write failed")
	}
	if len(tx.Missed()) != 1 {
		t.Fatalf("Missed grew: %v", tx.Missed())
	}
}

func TestTxWriteValueCopied(t *testing.T) {
	tx := NewTx(StateView{S: NewState()})
	v := Value{1}
	tx.Write(1, v)
	v[0] = 99
	if tx.Writes()[0].Val[0] != 1 {
		t.Fatal("Write aliased caller's slice")
	}
}

func TestAtViewReadsAsOfSeq(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 0, Value{0})
	m.WriteAt(1, 10, Value{10})
	tx := NewTx(AtView{M: m, Seq: 5})
	v, ok := tx.Read(1)
	if !ok || v[0] != 0 {
		t.Fatalf("AtView read = %v, %v; want 0 (version at seq 0)", v, ok)
	}
	tx2 := NewTx(AtView{M: m, Seq: 10})
	v, _ = tx2.Read(1)
	if v[0] != 10 {
		t.Fatalf("AtView(10) read = %v, want 10", v)
	}
}

func TestLatestView(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 3, Value{3})
	m.WriteAt(1, 9, Value{9})
	tx := NewTx(LatestView{M: m})
	v, ok := tx.Read(1)
	if !ok || v[0] != 9 {
		t.Fatalf("LatestView read = %v, %v", v, ok)
	}
}

// TestTxReset checks a Reset transaction starts clean and reuses its
// write-log value buffers without corrupting earlier runs' semantics.
func TestTxReset(t *testing.T) {
	s := NewState()
	s.Set(1, Value{10})
	s.Set(2, Value{20})
	tx := NewTx(StateView{S: s})
	tx.Read(1)
	tx.Write(2, Value{21})
	tx.Write(2, Value{22}) // overwrite path
	if v, _ := tx.Read(2); v[0] != 22 {
		t.Fatalf("read-your-writes = %v", v)
	}
	tx.Read(99) // missed

	firstLog := tx.Writes()
	if len(firstLog) != 1 || firstLog[0].Val[0] != 22 {
		t.Fatalf("writes before reset = %v", firstLog)
	}

	tx.Reset(StateView{S: s})
	if len(tx.Writes()) != 0 || len(tx.Missed()) != 0 || len(tx.ReadSet()) != 0 {
		t.Fatal("Reset left state behind")
	}
	if v, ok := tx.Read(2); !ok || v[0] != 20 {
		t.Fatalf("buffered write survived Reset: %v", v)
	}
	tx.Write(1, Value{11, 12})
	ws := tx.Writes()
	if len(ws) != 1 || ws[0].ID != 1 || !ws[0].Val.Equal(Value{11, 12}) {
		t.Fatalf("writes after reset = %v", ws)
	}
	// The recycled record must not alias the state's stored values.
	if v, _ := s.Get(1); v[0] != 10 {
		t.Fatalf("state mutated by scratch tx: %v", v)
	}

	// A third run shrinking the value exercises buffer truncation.
	tx.Reset(StateView{S: s})
	tx.Write(1, Value{7})
	if ws := tx.Writes(); len(ws[0].Val) != 1 || ws[0].Val[0] != 7 {
		t.Fatalf("reused buffer kept stale length: %v", ws[0].Val)
	}
}

// TestTxBlindWriteCollapse writes 1,024 distinct objects, in an order
// that is neither ascending nor descending, with every eighth write a
// repeat of an earlier id. Writes must keep first-write order, later
// values must win, read-your-writes must see the latest buffered value,
// and a Reset run after it must start clean.
func TestTxBlindWriteCollapse(t *testing.T) {
	const n = 1024
	tx := NewTx(StateView{S: NewState()})
	// id(i) visits 0..n-1 in a scrambled order (511 is odd, so it is a
	// bijection mod 1,024).
	id := func(i int) ObjectID { return ObjectID(1 + (i*511)%n) }
	want := make(map[ObjectID]float64)
	var order []ObjectID
	for i := 0; i < n; i++ {
		tx.Write(id(i), Value{float64(i)})
		want[id(i)] = float64(i)
		order = append(order, id(i))
		if i%8 == 7 {
			r := id(i / 2)
			tx.Write(r, Value{float64(-i)})
			want[r] = float64(-i)
		}
	}
	ws := tx.Writes()
	if len(ws) != n {
		t.Fatalf("%d write records, want %d", len(ws), n)
	}
	for i, w := range ws {
		if w.ID != order[i] {
			t.Fatalf("record %d is object %d, want %d (first-write order)", i, w.ID, order[i])
		}
		if len(w.Val) != 1 || w.Val[0] != want[w.ID] {
			t.Fatalf("object %d = %v, want [%v] (the last write)", w.ID, w.Val, want[w.ID])
		}
		if v, ok := tx.Read(w.ID); !ok || v[0] != want[w.ID] {
			t.Fatalf("read-your-writes on %d = %v, %v", w.ID, v, ok)
		}
	}
	if got := tx.WriteSet(); got.Len() != n || got[0] != 1 || got[n-1] != n {
		t.Fatalf("WriteSet spans %d ids [%d..%d]", got.Len(), got[0], got[got.Len()-1])
	}
	if got := tx.ReadSet(); !got.Equal(tx.WriteSet()) {
		t.Fatalf("ReadSet has %d ids, want the %d written", got.Len(), n)
	}

	tx.Reset(StateView{S: NewState()})
	if _, ok := tx.Read(id(3)); ok {
		t.Fatal("buffered write survived Reset")
	}
	tx.Write(5, Value{1})
	tx.Write(2, Value{2})
	if v, ok := tx.Read(5); !ok || v[0] != 1 {
		t.Fatalf("read-your-writes below the largest written id = %v, %v", v, ok)
	}
	if ws := tx.Writes(); len(ws) != 2 || ws[0].ID != 5 || ws[1].ID != 2 {
		t.Fatalf("writes after Reset = %v", ws)
	}
}

// TestTxReadSetDedups checks the read log is reported as a set: sorted,
// each id once, including ids that were only written.
func TestTxReadSetDedups(t *testing.T) {
	s := NewState()
	for _, id := range []ObjectID{4, 9, 1} {
		s.Set(id, Value{1})
	}
	tx := NewTx(StateView{S: s})
	for _, id := range []ObjectID{9, 4, 9, 1, 4} {
		tx.Read(id)
	}
	tx.Write(7, Value{7})
	tx.Write(4, Value{4})
	if got := tx.ReadSet(); !got.Equal(IDSet{1, 4, 7, 9}) {
		t.Fatalf("ReadSet = %v, want [1 4 7 9]", got)
	}
	if got := tx.WriteSet(); !got.Equal(IDSet{4, 7}) {
		t.Fatalf("WriteSet = %v, want [4 7]", got)
	}
}
