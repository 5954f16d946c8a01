package container

// Treap is a randomized balanced binary search tree mapping uint64 keys to
// values of type V. The flush scheduler (internal/flushdisk) keeps each
// drive's pending flush requests in a Treap keyed by object identifier so
// that the request nearest the drive's current position — in the circular
// oid-distance sense the paper defines for flush locality — can be found in
// O(log n) via Ceiling/Floor/Min/Max queries.
//
// Deleted nodes are kept on a free list (chained through left) and reused
// by later inserts, as in Table: a flush queue churns one node per update,
// and its size hovers around a steady backlog.
type Treap[V any] struct {
	root *treapNode[V]
	n    int
	rng  uint64
	free *treapNode[V]
}

type treapNode[V any] struct {
	key         uint64
	val         V
	prio        uint64
	left, right *treapNode[V]
}

// NewTreap returns an empty treap. The seed drives the heap priorities; any
// value (including 0) is fine and keeps runs deterministic.
func NewTreap[V any](seed uint64) *Treap[V] {
	return &Treap[V]{rng: seed ^ 0x9e3779b97f4a7c15}
}

// Len reports the number of entries.
func (t *Treap[V]) Len() int { return t.n }

func (t *Treap[V]) nextPrio() uint64 {
	// xorshift64*: cheap, deterministic, good enough for treap priorities.
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 0x2545f4914f6cdd1d
}

// Get returns the value stored under key.
func (t *Treap[V]) Get(key uint64) (V, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value under key and reports whether the key
// was newly inserted.
func (t *Treap[V]) Put(key uint64, val V) bool {
	var inserted bool
	t.root, inserted = t.insert(t.root, key, val)
	if inserted {
		t.n++
	}
	return inserted
}

func (t *Treap[V]) insert(n *treapNode[V], key uint64, val V) (*treapNode[V], bool) {
	if n == nil {
		n = t.free
		if n == nil {
			n = new(treapNode[V])
		} else {
			t.free = n.left
		}
		*n = treapNode[V]{key: key, val: val, prio: t.nextPrio()}
		return n, true
	}
	var inserted bool
	switch {
	case key < n.key:
		n.left, inserted = t.insert(n.left, key, val)
		if n.left.prio > n.prio {
			n = rotateRight(n)
		}
	case key > n.key:
		n.right, inserted = t.insert(n.right, key, val)
		if n.right.prio > n.prio {
			n = rotateLeft(n)
		}
	default:
		n.val = val
	}
	return n, inserted
}

// Delete removes key and reports whether it was present.
func (t *Treap[V]) Delete(key uint64) bool {
	var deleted bool
	t.root, deleted = t.delete(t.root, key)
	if deleted {
		t.n--
	}
	return deleted
}

func (t *Treap[V]) delete(n *treapNode[V], key uint64) (*treapNode[V], bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case key < n.key:
		n.left, deleted = t.delete(n.left, key)
	case key > n.key:
		n.right, deleted = t.delete(n.right, key)
	default:
		merged := t.merge(n.left, n.right)
		*n = treapNode[V]{left: t.free}
		t.free = n
		return merged, true
	}
	return n, deleted
}

func (t *Treap[V]) merge(a, b *treapNode[V]) *treapNode[V] {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio > b.prio:
		a.right = t.merge(a.right, b)
		return a
	default:
		b.left = t.merge(a, b.left)
		return b
	}
}

func rotateLeft[V any](n *treapNode[V]) *treapNode[V] {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

func rotateRight[V any](n *treapNode[V]) *treapNode[V] {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

// Min returns the smallest key.
func (t *Treap[V]) Min() (uint64, V, bool) {
	n := t.root
	if n == nil {
		var zero V
		return 0, zero, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, n.val, true
}

// Max returns the largest key.
func (t *Treap[V]) Max() (uint64, V, bool) {
	n := t.root
	if n == nil {
		var zero V
		return 0, zero, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}

// Ceiling returns the smallest entry with key >= k.
func (t *Treap[V]) Ceiling(k uint64) (uint64, V, bool) {
	var best *treapNode[V]
	n := t.root
	for n != nil {
		if n.key >= k {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val, true
}

// Floor returns the largest entry with key <= k.
func (t *Treap[V]) Floor(k uint64) (uint64, V, bool) {
	var best *treapNode[V]
	n := t.root
	for n != nil {
		if n.key <= k {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		var zero V
		return 0, zero, false
	}
	return best.key, best.val, true
}

// Range calls fn in ascending key order until fn returns false.
func (t *Treap[V]) Range(fn func(key uint64, val V) bool) {
	var walk func(n *treapNode[V]) bool
	walk = func(n *treapNode[V]) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		if !fn(n.key, n.val) {
			return false
		}
		return walk(n.right)
	}
	walk(t.root)
}
