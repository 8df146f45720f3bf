package world

import (
	"slices"
	"sort"
)

// MVStore is a multiversion object store: each object keeps a chain of
// (seq, value) versions, where seq is the server-assigned serial position
// of the action that wrote the value.
//
// Under the Incomplete World Model a client's stable state ζCS receives
// actions out of serial order: a later closure (Algorithm 6) can deliver
// an action older than ones the client has already applied, and blind
// writes carry values as of the server's install point. Replaying an
// action exactly therefore requires reading each object "as of" the
// action's serial position — precisely the multiversion-serializability
// machinery the paper builds on ([39], Section VI). A version chain per
// object provides that: ReadAt(id, n) returns the newest version with
// seq ≤ n.
//
// The paper's client-memory optimization (Section III-C: the server
// periodically reports the last installed action "enabling the client to
// garbage collect") maps to PruneBelow.
type MVStore struct {
	chains map[ObjectID][]version
	// multi lists, once each, the objects whose chain holds more than
	// one version: the only chains PruneBelow can shorten. WriteAt adds
	// an object as its chain grows to two versions; PruneBelow and
	// TruncateAbove drop the objects they cut back to one or none. A
	// client's GC step therefore costs what changed since the last one,
	// not every object it has ever been sent.
	multi []ObjectID
}

type version struct {
	seq uint64
	val Value
}

// NewMVStore returns an empty store.
func NewMVStore() *MVStore {
	return &MVStore{chains: make(map[ObjectID][]version)}
}

// Seed installs the initial world as version 0 of every object.
func (m *MVStore) Seed(init *State) {
	for _, id := range init.IDs() {
		v, _ := init.Get(id)
		m.WriteAt(id, 0, v)
	}
}

// WriteAt installs a copy of v as the version of id at serial position
// seq. Writing the same (id, seq) twice replaces the version — this is
// idempotent redelivery, not an error, because the server may resend an
// action in a later closure batch.
func (m *MVStore) WriteAt(id ObjectID, seq uint64, v Value) {
	chain := m.chains[id]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].seq >= seq })
	if i < len(chain) && chain[i].seq == seq {
		chain[i].val = v.Clone()
		return
	}
	chain = append(chain, version{})
	copy(chain[i+1:], chain[i:])
	chain[i] = version{seq: seq, val: v.Clone()}
	m.chains[id] = chain
	if len(chain) == 2 {
		m.multi = append(m.multi, id)
	}
}

// ReadAt returns the value of id as of serial position seq: the newest
// version with version-seq ≤ seq. ok is false if the object has no
// version that old (the client has never been sent its value).
func (m *MVStore) ReadAt(id ObjectID, seq uint64) (Value, bool) {
	chain := m.chains[id]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].seq > seq })
	if i == 0 {
		return nil, false
	}
	return chain[i-1].val, true
}

// Latest returns the newest version of id with its serial position.
func (m *MVStore) Latest(id ObjectID) (Value, uint64, bool) {
	chain := m.chains[id]
	if len(chain) == 0 {
		return nil, 0, false
	}
	v := chain[len(chain)-1]
	return v.val, v.seq, true
}

// Get returns the newest version of id, satisfying the Reader interface
// so that reconciliation (Algorithm 3) can copy stable values into the
// optimistic state.
func (m *MVStore) Get(id ObjectID) (Value, bool) {
	v, _, ok := m.Latest(id)
	return v, ok
}

var _ Reader = (*MVStore)(nil)

// LastWriter returns the serial position of the newest version of id, or
// 0 if the object is unknown.
func (m *MVStore) LastWriter(id ObjectID) uint64 {
	_, seq, ok := m.Latest(id)
	if !ok {
		return 0
	}
	return seq
}

// Known reports whether the store holds any version of id.
func (m *MVStore) Known(id ObjectID) bool {
	return len(m.chains[id]) > 0
}

// PruneBelow discards versions older than seq, keeping for each object
// the newest version with version-seq ≤ seq (collapsed to position seq)
// so ReadAt(id, x) keeps working for x ≥ seq. This implements the
// client-side garbage collection triggered by the server's last-installed
// notifications.
func (m *MVStore) PruneBelow(seq uint64) {
	kept := m.multi[:0]
	for _, id := range m.multi {
		chain := m.chains[id]
		i := sort.Search(len(chain), func(i int) bool { return chain[i].seq > seq })
		if i > 1 {
			// chain[i-1] is the newest version at or below seq; collapse
			// everything below it, in place.
			chain[0] = version{seq: seq, val: chain[i-1].val}
			n := 1 + copy(chain[1:], chain[i:])
			clear(chain[n:])
			chain = chain[:n]
			m.chains[id] = chain
		}
		if len(chain) > 1 {
			kept = append(kept, id)
		}
	}
	m.multi = kept
}

// TruncateAbove discards versions newer than seq, dropping objects
// whose every version is above it. This is the client-side boot fence:
// a restarted server re-issues serial positions above its recovery
// floor, so versions the previous boot placed there describe actions
// that no longer hold those positions.
func (m *MVStore) TruncateAbove(seq uint64) {
	for id, chain := range m.chains {
		i := sort.Search(len(chain), func(i int) bool { return chain[i].seq > seq })
		if i == len(chain) {
			continue
		}
		if i == 0 {
			delete(m.chains, id)
			continue
		}
		for j := i; j < len(chain); j++ {
			chain[j] = version{}
		}
		m.chains[id] = chain[:i]
	}
	m.multi = slices.DeleteFunc(m.multi, func(id ObjectID) bool { return len(m.chains[id]) < 2 })
}

// Versions reports the total number of stored versions, for memory
// accounting in tests and the GC experiments.
func (m *MVStore) Versions() int {
	n := 0
	for _, chain := range m.chains {
		n += len(chain)
	}
	return n
}

// LatestState materializes the newest version of every object as a State.
func (m *MVStore) LatestState() *State {
	s := NewState()
	for id, chain := range m.chains {
		if len(chain) > 0 {
			s.Set(id, chain[len(chain)-1].val)
		}
	}
	return s
}

// IDs returns the ids of all objects with at least one version, sorted.
func (m *MVStore) IDs() IDSet {
	ids := make(IDSet, 0, len(m.chains))
	for id, chain := range m.chains {
		if len(chain) > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}
