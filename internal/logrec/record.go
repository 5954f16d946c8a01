// Package logrec defines the log record model of the paper (section 2.1):
// two record classes — transaction (tx) log records marking milestones in a
// transaction's life (BEGIN, COMMIT, ABORT) and data log records
// chronicling updates to database objects — plus a binary wire encoding so
// that the simulated disk holds real bytes and the recovery manager decodes
// what a crash would actually leave behind.
//
// The paper assumes REDO-only physical state logging: a data record carries
// only the new value of the object, written by a transaction that never
// propagates uncommitted updates to the disk version of the database. All
// records are timestamped (section 2.1) so the recovery manager can
// re-establish temporal order even after recirculation scrambles physical
// order; this implementation uses a global log sequence number (LSN) as
// that timestamp.
package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ellog/internal/sim"
)

// LSN is a log sequence number: a strictly increasing timestamp assigned
// when a record is created. Recirculation in the last generation destroys
// the correspondence between physical order and temporal order, so the LSN
// is the authoritative ordering during recovery.
type LSN uint64

// TxID identifies a transaction.
type TxID uint64

// OID identifies a database object — "any distinct item of data in a
// database" in the paper's broad sense.
type OID uint64

// Kind distinguishes record types.
type Kind uint8

const (
	// KindBegin is the tx record written when a transaction starts.
	KindBegin Kind = iota + 1
	// KindCommit is the tx record written when a transaction requests
	// commit; the transaction is committed once the record is durable.
	KindCommit
	// KindAbort is the tx record written when a transaction aborts or is
	// killed by the logging manager for want of log space.
	KindAbort
	// KindData is a data log record carrying an object's new value.
	KindData
	// KindPrepare is the tx record a participant shard writes for a
	// cross-shard transaction (2PC-in-the-log): once durable, the shard is
	// prepared — it can neither commit nor abort the transaction on its own
	// until the coordinator's decision is known.
	KindPrepare
	// KindDecide is the tx record the coordinator shard writes to commit a
	// cross-shard transaction; it doubles as the coordinator's own local
	// COMMIT. Abort decisions are never logged (presumed abort): an
	// in-doubt participant that finds no durable DECIDE presumes abort.
	KindDecide
)

// String returns the record kind name.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "BEGIN"
	case KindCommit:
		return "COMMIT"
	case KindAbort:
		return "ABORT"
	case KindData:
		return "DATA"
	case KindPrepare:
		return "PREPARE"
	case KindDecide:
		return "DECIDE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsTx reports whether the record kind is a transaction milestone record.
func (k Kind) IsTx() bool {
	switch k {
	case KindBegin, KindCommit, KindAbort, KindPrepare, KindDecide:
		return true
	}
	return false
}

// Record is a single log record. Size is the record's logical footprint in
// the log (the paper charges 8 bytes per tx record and the workload's
// configured size, 100 bytes in the experiments, per data record); block
// packing and disk-space accounting use Size, while Encode produces the
// simulated on-disk bytes.
type Record struct {
	LSN  LSN
	Time sim.Time // creation time (the paper's timestamp)
	Kind Kind
	Tx   TxID
	Obj  OID    // data records only
	Size int    // logical bytes charged against the 2000-byte block payload
	Val  uint64 // synthetic object value; echoes the LSN for verification

	// Before-image for the UNDO/REDO extension (the paper's section 1:
	// "the techniques proposed in this paper can be extended to the more
	// general situation of UNDO/REDO logging with little difficulty").
	// PrevLSN/PrevVal identify the latest committed version of the object
	// before this transaction touched it; under a steal policy they are
	// what recovery (or an abort) restores. Zero under pure REDO logging.
	PrevLSN LSN
	PrevVal uint64
}

// NewTxRecord builds a BEGIN/COMMIT/ABORT record of the given logical size.
func NewTxRecord(lsn LSN, now sim.Time, kind Kind, tx TxID, size int) *Record {
	if !kind.IsTx() {
		panic("logrec: NewTxRecord with non-tx kind " + kind.String())
	}
	return &Record{LSN: lsn, Time: now, Kind: kind, Tx: tx, Size: size}
}

// NewDataRecord builds a data record. The synthetic value is derived from
// the LSN so that recovery results can be verified exactly.
func NewDataRecord(lsn LSN, now sim.Time, tx TxID, obj OID, size int) *Record {
	return &Record{LSN: lsn, Time: now, Kind: KindData, Tx: tx, Obj: obj, Size: size, Val: uint64(lsn)}
}

// Pool is a free list of Records for one single-threaded owner (a logging
// manager): its constructors reuse what Put handed back, LIFO, so a given
// run reuses the same records in the same order every time — which a
// sync.Pool would not promise. The zero Pool is ready to use and grows on
// demand. The owner alone decides when nothing references a record any
// more; Put zeroes it (LSN 0 is never issued, so a zero LSN marks a record
// that is on the free list) and panics on a second Put of the same record.
type Pool struct{ free []*Record }

func (p *Pool) get() *Record {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return new(Record)
}

// NewTxRecord is the pooled NewTxRecord.
func (p *Pool) NewTxRecord(lsn LSN, now sim.Time, kind Kind, tx TxID, size int) *Record {
	if !kind.IsTx() {
		panic("logrec: NewTxRecord with non-tx kind " + kind.String())
	}
	r := p.get()
	*r = Record{LSN: lsn, Time: now, Kind: kind, Tx: tx, Size: size}
	return r
}

// NewDataRecord is the pooled NewDataRecord.
func (p *Pool) NewDataRecord(lsn LSN, now sim.Time, tx TxID, obj OID, size int) *Record {
	r := p.get()
	*r = Record{LSN: lsn, Time: now, Kind: KindData, Tx: tx, Obj: obj, Size: size, Val: uint64(lsn)}
	return r
}

// Put returns a record nothing references any more to the free list.
func (p *Pool) Put(r *Record) {
	if r.LSN == 0 {
		panic("logrec: record recycled twice")
	}
	*r = Record{}
	p.free = append(p.free, r)
}

// Zeroed reports whether every record on the free list still carries the
// zero LSN Put left it with; a false means something wrote through a
// pointer it should no longer have held (the owner's invariant checks ask).
func (p *Pool) Zeroed() bool {
	for _, r := range p.free {
		if r.LSN != 0 {
			return false
		}
	}
	return true
}

// String formats the record for traces and test failures.
func (r *Record) String() string {
	if r.Kind == KindData {
		return fmt.Sprintf("{%d @%v DATA tx=%d obj=%d %dB}", r.LSN, r.Time, r.Tx, r.Obj, r.Size)
	}
	return fmt.Sprintf("{%d @%v %s tx=%d %dB}", r.LSN, r.Time, r.Kind, r.Tx, r.Size)
}

// encodedLen is the fixed wire size of one record header. Data payload
// beyond the header is not materialized — the simulated disk does not need
// the actual 100 bytes of application data, only its accounting — so the
// wire form is header-only and Size records the logical length.
const encodedLen = 8 + 8 + 1 + 8 + 8 + 4 + 8 + 8 + 8 // LSN, Time, Kind, Tx, Obj, Size, Val, PrevLSN, PrevVal

// wireRecLen is encodedLen plus the per-record CRC32-C trailer. The
// per-record checksum is what lets a torn block be salvaged record by
// record: a write that only partially reached disk leaves a prefix of
// intact records followed by a record whose trailer no longer matches.
const wireRecLen = encodedLen + 4

// blockHdrLen is the block header: record count plus a whole-block CRC32-C
// over the record region — the fast-path integrity check.
const blockHdrLen = 4 + 4

// castagnoli is the CRC32-C polynomial table (iSCSI/ext4/LevelDB family),
// the conventional choice for storage checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Append encodes the record onto buf — fixed header followed by a CRC32-C
// of that header — and returns the extended slice. The record is encoded
// in place (no stack temporary) so the append hot path stays
// allocation-free when the destination has capacity.
func (r *Record) Append(buf []byte) []byte {
	base := len(buf)
	buf = append(buf, make([]byte, wireRecLen)...)
	w := buf[base:]
	binary.LittleEndian.PutUint64(w[0:], uint64(r.LSN))
	binary.LittleEndian.PutUint64(w[8:], uint64(r.Time))
	w[16] = byte(r.Kind)
	binary.LittleEndian.PutUint64(w[17:], uint64(r.Tx))
	binary.LittleEndian.PutUint64(w[25:], uint64(r.Obj))
	binary.LittleEndian.PutUint32(w[33:], uint32(r.Size))
	binary.LittleEndian.PutUint64(w[37:], r.Val)
	binary.LittleEndian.PutUint64(w[45:], uint64(r.PrevLSN))
	binary.LittleEndian.PutUint64(w[53:], r.PrevVal)
	binary.LittleEndian.PutUint32(w[encodedLen:], crc32.Checksum(w[:encodedLen], castagnoli))
	return buf
}

// ErrCorrupt is returned when decoding malformed bytes.
var ErrCorrupt = errors.New("logrec: corrupt record encoding")

// Decode parses one record from the front of buf, verifying its CRC, and
// returns it along with the remaining bytes.
func Decode(buf []byte) (*Record, []byte, error) {
	if len(buf) < wireRecLen {
		return nil, buf, fmt.Errorf("%w: %d bytes remaining, need %d", ErrCorrupt, len(buf), wireRecLen)
	}
	if got, want := crc32.Checksum(buf[:encodedLen], castagnoli), binary.LittleEndian.Uint32(buf[encodedLen:]); got != want {
		return nil, buf, fmt.Errorf("%w: record CRC %08x, trailer %08x", ErrCorrupt, got, want)
	}
	r := &Record{
		LSN:     LSN(binary.LittleEndian.Uint64(buf[0:])),
		Time:    sim.Time(binary.LittleEndian.Uint64(buf[8:])),
		Kind:    Kind(buf[16]),
		Tx:      TxID(binary.LittleEndian.Uint64(buf[17:])),
		Obj:     OID(binary.LittleEndian.Uint64(buf[25:])),
		Size:    int(binary.LittleEndian.Uint32(buf[33:])),
		Val:     binary.LittleEndian.Uint64(buf[37:]),
		PrevLSN: LSN(binary.LittleEndian.Uint64(buf[45:])),
		PrevVal: binary.LittleEndian.Uint64(buf[53:]),
	}
	if r.Kind < KindBegin || r.Kind > KindDecide {
		return nil, buf, fmt.Errorf("%w: kind %d", ErrCorrupt, r.Kind)
	}
	return r, buf[wireRecLen:], nil
}

// AppendBlock appends a block's wire encoding — a count header and
// whole-block CRC32-C, followed by the checksummed records back to back —
// onto dst and returns the extended slice. It is the allocation-free
// sibling of EncodeBlock: callers on the append hot path pass a scratch
// buffer (typically reset with dst[:0]) that is reused write after write,
// so steady-state block encoding allocates nothing.
func AppendBlock(dst []byte, recs []*Record) []byte {
	var hdr [blockHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(recs)))
	dst = append(dst, hdr[:]...)
	base := len(dst)
	for _, r := range recs {
		dst = r.Append(dst)
	}
	binary.LittleEndian.PutUint32(dst[base-4:base], crc32.Checksum(dst[base:], castagnoli))
	return dst
}

// MaxBlockWire returns the largest wire-encoded block size possible for a
// block of the given logical payload when no record is charged fewer than
// minRecSize logical bytes. The wire form is header-only (payload bytes are
// accounted, not materialized), so a block packed with minimum-size records
// — 8-byte tx records against a 2000-byte payload — encodes to far more
// wire bytes than its logical size. Real-file backends size their on-disk
// slots from this bound, not from the logical block size.
func MaxBlockWire(payload, minRecSize int) int {
	if minRecSize <= 0 {
		minRecSize = 1
	}
	return blockHdrLen + (payload/minRecSize)*wireRecLen
}

// EncodeBlock serializes a block's records: a checksummed header followed
// by the checksummed records back to back.
func EncodeBlock(recs []*Record) []byte {
	return AppendBlock(make([]byte, 0, blockHdrLen+len(recs)*wireRecLen), recs)
}

// DecodeBlock parses the output of EncodeBlock strictly: the block CRC, the
// record count and every record CRC must check out, with no trailing bytes.
// Recovery uses SalvageBlock instead, which degrades gracefully on torn or
// corrupted blocks.
func DecodeBlock(buf []byte) ([]*Record, error) {
	if len(buf) < blockHdrLen {
		return nil, fmt.Errorf("%w: block shorter than header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(buf)
	if got, want := crc32.Checksum(buf[blockHdrLen:], castagnoli), binary.LittleEndian.Uint32(buf[4:]); got != want {
		return nil, fmt.Errorf("%w: block CRC %08x, header %08x", ErrCorrupt, got, want)
	}
	buf = buf[blockHdrLen:]
	// Cap the preallocation by what the buffer could physically hold so a
	// corrupted count header cannot force an unbounded allocation.
	prealloc := int(n)
	if max := len(buf) / wireRecLen; prealloc > max {
		prealloc = max
	}
	recs := make([]*Record, 0, prealloc)
	for i := uint32(0); i < n; i++ {
		r, rest, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
		buf = rest
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	return recs, nil
}

// SalvageBlock decodes as much of a block as its checksums vouch for. An
// intact block (block CRC matches) decodes fully, exactly like DecodeBlock.
// Otherwise the block was torn mid-write or silently corrupted, and the
// per-record CRCs take over: records are decoded front to back, stopping at
// the first one whose trailer fails — the salvaged prefix is precisely the
// part of the write that reached disk intact, so a torn write loses only
// its suffix. SalvageBlock never fails; a hopeless block yields no records.
// intact reports whether the whole block verified.
func SalvageBlock(buf []byte) (recs []*Record, intact bool) {
	if len(buf) < blockHdrLen {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(buf)
	intact = crc32.Checksum(buf[blockHdrLen:], castagnoli) == binary.LittleEndian.Uint32(buf[4:])
	body := buf[blockHdrLen:]
	prealloc := int(n)
	if max := len(body) / wireRecLen; prealloc > max {
		prealloc = max
	}
	recs = make([]*Record, 0, prealloc)
	for i := uint32(0); i < n; i++ {
		r, rest, err := Decode(body)
		if err != nil {
			return recs, false
		}
		recs = append(recs, r)
		body = rest
	}
	if intact && len(body) != 0 {
		intact = false // count header inconsistent with the byte count
	}
	return recs, intact
}
