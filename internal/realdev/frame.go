// Package realdev binds the logging-manager core to a real file: the
// second implementation of core.LogDevice, writing the exact logrec block
// images the simulated device holds — but to fixed-size, alignment-friendly
// slots of an ordinary file, made durable by fsync. The device has no
// group-commit policy of its own: what the manager wrote during a loop turn
// is handed to the syncer once, at the end of the turn (or of the turn in
// which the fsync ahead of it completes), and reaches the file as one pwrite
// per run of adjacent slots followed by one fsync per batch.
//
// Like internal/realtime, this package lives outside the determinism
// contract: it reads the wall clock and its timings are not reproducible
// (the ellint ruleset exempts it by scope). Its on-disk state, however, is
// governed by the same CRC32-C record and block checksums as the simulated
// crash image, so internal/recovery's scan/salvage pass recovers a real
// file exactly as it recovers a simulated device.
//
// On-disk layout: a directory holding meta.json ({"version":1,
// "slot_bytes":N}) and log.dat, an array of N-byte slots, one per
// allocated BlockID in allocation order. Each written slot starts with a
// 16-byte frame header — magic, generation, payload length, and a CRC32-C
// over those twelve bytes — followed by the logrec block image and zero or
// stale padding out to the slot size. Slots are sized for the WORST-CASE
// wire encoding of a block (logrec.MaxBlockWire): the wire form is
// header-only, so a block packed with 8-byte tx records encodes to ~16 KiB
// against its 2000-byte logical payload, and sizing slots from the logical
// block size would overflow.
package realdev

import (
	"encoding/binary"
	"hash/crc32"

	"ellog/internal/logrec"
)

const (
	// frameHdrLen is the per-slot header: magic (4), generation (4),
	// payload length (4), CRC32-C of the preceding twelve bytes (4).
	frameHdrLen = 16
	// diskAlign is the alignment unit for slot sizes, file offsets and
	// direct-I/O buffers: 4096 covers every contemporary logical block
	// size.
	diskAlign = 4096
)

// frameMagic marks a slot that has been written at least once. A slot of
// zeros (never written) or a partially written header fails the magic or
// header-CRC check and is skipped by the image reader — the real-file
// equivalent of a simulated block with nil durable contents.
var frameMagic = [4]byte{'E', 'L', 'R', 'D'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putFrame writes a frame header plus payload into buf, which must hold at
// least frameHdrLen+len(payload) bytes, and returns the frame length.
func putFrame(buf []byte, gen int, payload []byte) int {
	copy(buf[0:4], frameMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(gen))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.Checksum(buf[0:12], castagnoli))
	copy(buf[frameHdrLen:], payload)
	return frameHdrLen + len(payload)
}

// parseFrame validates a slot's frame header and returns the generation
// and payload. A payload length pointing past the available bytes — the
// signature of a write torn at the end of the file — is clamped, not
// rejected: the payload's own block and record checksums decide how much
// of it survives (logrec.SalvageBlock), exactly as for a torn simulated
// block.
func parseFrame(slot []byte) (gen int, payload []byte, ok bool) {
	if len(slot) < frameHdrLen {
		return 0, nil, false
	}
	if [4]byte(slot[0:4]) != frameMagic {
		return 0, nil, false
	}
	if crc32.Checksum(slot[0:12], castagnoli) != binary.LittleEndian.Uint32(slot[12:16]) {
		return 0, nil, false
	}
	gen = int(binary.LittleEndian.Uint32(slot[4:8]))
	plen := int(binary.LittleEndian.Uint32(slot[8:12]))
	if plen > len(slot)-frameHdrLen {
		plen = len(slot) - frameHdrLen
	}
	return gen, slot[frameHdrLen : frameHdrLen+plen], true
}

// SlotFor returns the slot size (a multiple of the 4096-byte alignment
// unit) needed to hold any block a manager with the given logical payload
// can produce, when no record is charged fewer than minRecSize logical
// bytes.
func SlotFor(blockPayload, minRecSize int) int {
	need := frameHdrLen + logrec.MaxBlockWire(blockPayload, minRecSize)
	return (need + diskAlign - 1) &^ (diskAlign - 1)
}
