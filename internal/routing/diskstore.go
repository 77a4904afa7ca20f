package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sbgp/internal/asgraph"
)

// The L2 static tier. A destination's static routing information
// depends only on (graph, destination, tiebreaker) — never on the
// deployment state (Observation C.1) — so its packed blob (packed.go)
// is valid forever: across rounds, Runs, simulations and process
// restarts. StaticDiskStore persists those blobs on disk, keyed by
// asgraph.Fingerprint(g) plus the tiebreaker's canonical wire form
// (tiebreakwire.go) plus the destination id, so a graph's three-stage
// BFS is paid once per (graph, tiebreaker), ever.
//
// Layout under the caller's root directory (one root serves any number
// of graphs):
//
//	<root>/statics-v1-<key16>/     key = sha256(graphFP ‖ 0 ‖ tbWire)
//	    meta.json                  graph fingerprint + tiebreaker hex
//	    seg-<pid>-<k>.log          append-only record segments
//	    index.bin                  open-time index snapshot (optional)
//
// Segments are append-only and process-private: every store instance
// creates its own O_EXCL-named segment and never writes another
// process's file, so any number of processes may populate one
// directory concurrently without locks — readers discover foreign
// segments at open time. Each record is a fixed header (magic,
// destination, length, CRC-32C of the blob) followed by the blob. A
// torn tail — a crash mid-append, or a foreign writer caught
// mid-record — is recovered logically: the open-time scan stops at the
// first record that fails its structural checks and ignores the rest
// of that segment, so no store ever truncates (or otherwise mutates) a
// file another process may still be appending to.
//
// index.bin is a rebuildable open-time optimization in the spirit of
// the experiment store's atomic snapshot files: it records, per
// segment, the byte range already validated and the (dest, offset,
// length, crc) of every record in it, the whole file guarded by a
// trailing CRC and replaced atomically (tmp + rename). Open loads a
// valid index and then structurally walks only the uncovered segment
// tails; a missing, stale or corrupt index just means a full walk. The
// index is flushed every indexFlushEvery appends and on Close, so a
// process killed without Close costs the next opener a scan, never
// correctness.
//
// Everything read back is untrusted: a record is served only if its
// blob matches the CRC recorded for it, and callers decode the bytes
// with every structural and bounds check live (DecodePackedTrusted
// states the model: it skips only the cross-field level/class
// revalidation the CRC already makes a 2^-32 event — nothing that can
// panic or read out of bounds). Any validation failure
// — bad meta, bad index, bad header, bad CRC, bad decode (reported via
// Drop) — makes the affected records invisible, so the caller
// recomputes and the store repairs itself by appending fresh records.
// Results are therefore bit-identical with the store absent, cold,
// warm, or arbitrarily corrupted.
//
// Reads are mmap-backed where the platform allows (mmap_unix.go):
// Lookup returns a slice of the page cache, so a warm store's resident
// blobs cost no heap at all. The process's own growing segment (and
// every segment on platforms without mmap) is served by pread.

const (
	// diskRecMagic starts every packed-static segment record
	// ("SBS1", little endian).
	diskRecMagic = 0x31534253
	// diskSidecarMagic starts every pristine-contribution sidecar
	// record ("SBS2"): same fixed header, but the dest field carries
	// kind<<24|dest (sidecars are keyed per utility model; see
	// sidecar.go). Sidecar records interleave with static records in
	// the same append-only segments. Older readers, which know only
	// SBS1, treat the first SBS2 header as a torn tail and stop the
	// scan there — they lose the records behind it and recompute, which
	// is the designed degradation, never a misread.
	diskSidecarMagic = 0x32534253
	// diskSidecarDestMax bounds a sidecar record's destination so it
	// packs beside the kind in the header's dest field.
	diskSidecarDestMax = 1 << 24
	// diskIndexMagic starts index.bin ("SBSX").
	diskIndexMagic = 0x58534253
	// diskRecHeader is the fixed record header size: magic, dest,
	// length, CRC-32C — four little-endian uint32s.
	diskRecHeader = 16
	// diskIndexVersion versions index.bin; bump on layout change.
	// v2 added a per-record kind flag (0 = packed static, 1+kind =
	// sidecar). A v1 index is discarded at open — the segments rescan,
	// so the bump costs one scan, never correctness.
	diskIndexVersion = 2
	// indexFlushEvery bounds how many appended records an index
	// snapshot may lag: a crash re-scans at most this many record
	// headers per segment at next open. Rewriting the index is
	// O(entries), so the amortized cost per append stays ~20 B of
	// sequential index I/O per cached destination.
	indexFlushEvery = 512
)

// castagnoli is the CRC-32C table; Castagnoli detects all single-bit
// and single-byte errors, which is what the corruption sweep relies on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// diskSegment is one on-disk segment file. name and f are immutable
// after open; data is the read-only mapping (nil means pread via f).
// size is the validated byte range — records are only ever registered
// inside it, and for the writer segment it advances under the store
// mutex as records are appended.
type diskSegment struct {
	name string
	f    *os.File
	data []byte
	size int64
}

// diskRec locates one destination's record inside a segment.
type diskRec struct {
	seg *diskSegment
	off int64 // header offset; blob starts at off+diskRecHeader
	len int32
	crc uint32
}

// diskMeta is the meta.json payload binding a store directory to its
// (graph, tiebreaker) pair.
type diskMeta struct {
	Graph      string `json:"graph"`
	Tiebreaker string `json:"tiebreaker"`
	Nodes      int    `json:"nodes"`
}

// StaticDiskStore is the persistent L2 tier for packed static
// snapshots of one (graph, tiebreaker) pair. It is safe for concurrent
// use by any number of goroutines, and any number of instances — in
// one process or many — may serve the same directory simultaneously.
type StaticDiskStore struct {
	g   *asgraph.Graph
	dir string
	n   int32

	mu      sync.RWMutex
	index   map[int32]diskRec
	scIndex map[int64]diskRec // sidecar records, keyed int64(kind)<<32|dest
	segs    []*diskSegment    // all open segments, writer last when present
	w       *diskSegment      // this instance's append segment; nil until first Put
	wOff    int64
	wDead   bool // a write failed: this instance is read-only from now on
	wbuf    []byte
	dirty   int   // appends since the last index flush
	writes  int64 // lifetime appends by this instance
	closed  bool
}

// diskStoreKey derives the per-(graph, tiebreaker) subdirectory name.
func diskStoreKey(graphFP string, tbWire []byte) string {
	h := sha256.New()
	h.Write([]byte(graphFP))
	h.Write([]byte{0})
	h.Write(tbWire)
	return "statics-v1-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// OpenStaticDiskStore opens (creating as needed) the store for
// (g, tb) under root. tb nil means HashTiebreaker{}; a tiebreaker
// without a wire form (EncodeTiebreaker fails) cannot be keyed and is
// an error. The caller owns the instance and should Close it to flush
// the index snapshot; records themselves are durable at Put.
func OpenStaticDiskStore(root string, g *asgraph.Graph, tb Tiebreaker) (*StaticDiskStore, error) {
	return openDiskStore(root, g, asgraph.Fingerprint(g), tb)
}

func openDiskStore(root string, g *asgraph.Graph, graphFP string, tb Tiebreaker) (*StaticDiskStore, error) {
	if tb == nil {
		tb = HashTiebreaker{}
	}
	tbw, err := EncodeTiebreaker(tb)
	if err != nil {
		return nil, fmt.Errorf("routing: disk store: %w", err)
	}
	dir := filepath.Join(root, diskStoreKey(graphFP, tbw))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("routing: disk store: %w", err)
	}
	st := &StaticDiskStore{
		g:       g,
		dir:     dir,
		n:       int32(g.N()),
		index:   make(map[int32]diskRec),
		scIndex: make(map[int64]diskRec),
	}

	// Meta check: the directory name already keys (graph, tiebreaker),
	// so a well-formed mismatch means a hash collision or tampering —
	// refuse rather than risk serving another graph's blobs. A missing
	// or corrupt meta (torn first write) conservatively ignores every
	// existing file: the store restarts empty and heals by rewriting.
	want := diskMeta{Graph: graphFP, Tiebreaker: hex.EncodeToString(tbw), Nodes: g.N()}
	trust := true
	metaPath := filepath.Join(dir, "meta.json")
	if raw, err := os.ReadFile(metaPath); err == nil {
		var have diskMeta
		if json.Unmarshal(raw, &have) != nil {
			trust = false
		} else if have != want {
			return nil, fmt.Errorf("routing: disk store %s bound to different graph/tiebreaker", dir)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("routing: disk store: %w", err)
	} else {
		trust = false
	}
	if !trust {
		wj, _ := json.Marshal(want)
		if err := writeDiskFileAtomic(metaPath, wj); err != nil {
			return nil, fmt.Errorf("routing: disk store: %w", err)
		}
	}

	covered := map[string]int64{}
	indexed := map[string][]indexRec{}
	if trust {
		loadDiskIndex(filepath.Join(dir, "index.bin"), covered, indexed)
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("routing: disk store: %w", err)
	}
	var segNames []string
	for _, e := range names {
		if nm := e.Name(); strings.HasPrefix(nm, "seg-") && strings.HasSuffix(nm, ".log") && !e.IsDir() {
			segNames = append(segNames, nm)
		}
	}
	sort.Strings(segNames)
	for _, nm := range segNames {
		if !trust {
			// Untrusted directory (corrupt meta): existing segments may
			// belong to anything — leave them unread; new appends go to
			// a fresh segment.
			continue
		}
		seg, err := st.openSegment(nm, covered[nm], indexed[nm])
		if err != nil {
			continue // unreadable segment: its records recompute
		}
		st.segs = append(st.segs, seg)
	}
	return st, nil
}

// openSegment opens one existing segment: registers the index-covered
// records after bounds checks, then structurally scans the uncovered
// tail. The segment is mmapped when the platform allows; the fd is
// kept open either way for the pread fallback.
func (st *StaticDiskStore) openSegment(name string, covered int64, recs []indexRec) (*diskSegment, error) {
	f, err := os.Open(filepath.Join(st.dir, name))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	data, err := mmapFile(f, size)
	if err != nil {
		data = nil
	}
	seg := &diskSegment{name: name, f: f, data: data, size: size}
	if covered > size || covered < 0 {
		// The index claims more than the file holds: stale or corrupt
		// beyond its own CRC's reach (file replaced?). Rescan fully.
		covered = 0
		recs = nil
	}
	for _, r := range recs {
		if r.off < 0 || r.len <= 0 || r.off+diskRecHeader+int64(r.len) > covered ||
			r.dest < 0 || r.dest >= st.n {
			continue
		}
		rec := diskRec{seg: seg, off: r.off, len: r.len, crc: r.crc}
		if r.kflag == 0 {
			st.index[r.dest] = rec
		} else {
			st.scIndex[diskSidecarKey(r.kflag-1, r.dest)] = rec
		}
	}
	st.scanSegment(seg, covered, size)
	return seg, nil
}

// scanSegment structurally walks seg's records in [from, to),
// registering each well-formed one (last record wins — by determinism
// every valid blob for a destination is identical, and last-wins lets
// repair appends supersede corrupt records). Static (SBS1) and sidecar
// (SBS2) records interleave freely. The walk stops at the first
// malformed header or overrun: everything beyond it is a torn tail (or
// foreign garbage) and stays invisible.
func (st *StaticDiskStore) scanSegment(seg *diskSegment, from, to int64) {
	var hdr [diskRecHeader]byte
	off := from
	for off+diskRecHeader <= to {
		if !seg.readAt(hdr[:], off) {
			break
		}
		magic := binary.LittleEndian.Uint32(hdr[0:])
		dest := binary.LittleEndian.Uint32(hdr[4:])
		blen := binary.LittleEndian.Uint32(hdr[8:])
		crc := binary.LittleEndian.Uint32(hdr[12:])
		if blen == 0 || off+diskRecHeader+int64(blen) > to {
			break
		}
		rec := diskRec{seg: seg, off: off, len: int32(blen), crc: crc}
		switch magic {
		case diskRecMagic:
			if dest >= uint32(st.n) {
				off = to // malformed: stop
				continue
			}
			st.index[int32(dest)] = rec
		case diskSidecarMagic:
			kind := uint8(dest >> 24)
			d := int32(dest & (diskSidecarDestMax - 1))
			if d >= st.n {
				off = to
				continue
			}
			st.scIndex[diskSidecarKey(kind, d)] = rec
		default:
			off = to
			continue
		}
		off += diskRecHeader + int64(blen)
	}
}

// diskSidecarKey packs a sidecar record's (kind, dest) identity into
// one index key.
func diskSidecarKey(kind uint8, d int32) int64 {
	return int64(kind)<<32 | int64(uint32(d))
}

// readAt fills buf from the segment at off, via the mapping or pread.
func (seg *diskSegment) readAt(buf []byte, off int64) bool {
	if seg.data != nil {
		if off < 0 || off+int64(len(buf)) > int64(len(seg.data)) {
			return false
		}
		copy(buf, seg.data[off:])
		return true
	}
	_, err := seg.f.ReadAt(buf, off)
	return err == nil
}

// Lookup returns the packed blob stored for destination d, or nil. The
// returned bytes are read-only and — on mmap platforms — alias the
// page cache; callers must not retain them past the store's Close.
// The blob's CRC is verified here (catching every single-byte flip);
// callers decode it trusted — the model DecodePackedTrusted states —
// and report a decode failure via Drop so the record can be repaired.
// A nil store always misses.
func (st *StaticDiskStore) Lookup(d int32) []byte {
	if st == nil {
		return nil
	}
	st.mu.RLock()
	rec, ok := st.index[d]
	closed := st.closed
	st.mu.RUnlock()
	if !ok || closed {
		return nil
	}
	var b []byte
	if rec.seg.data != nil {
		b = rec.seg.data[rec.off+diskRecHeader : rec.off+diskRecHeader+int64(rec.len)]
	} else {
		b = make([]byte, rec.len)
		if !rec.seg.readAt(b, rec.off+diskRecHeader) {
			st.Drop(d)
			return nil
		}
	}
	if crc32.Checksum(b, castagnoli) != rec.crc {
		st.Drop(d)
		return nil
	}
	// The CRC covers only the blob, so a flipped destination byte in the
	// record header would register a perfectly valid blob under the
	// wrong key — cross-check the blob's own embedded destination.
	if pd, ok := PackedDest(b); !ok || pd != d {
		st.Drop(d)
		return nil
	}
	return b
}

// Has reports whether a record for d is registered (without verifying
// its CRC). A nil store has nothing.
func (st *StaticDiskStore) Has(d int32) bool {
	if st == nil {
		return false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.index[d]
	return ok && !st.closed
}

// Drop forgets the record for d — a failed CRC or decode — so a later
// Put appends a fresh one: the self-repair path. The bytes on disk are
// left alone (another process may be reading the file).
func (st *StaticDiskStore) Drop(d int32) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.index, d)
}

// Put appends a record for destination d unless one is already
// registered, reporting whether bytes were written. Append failures
// (disk full, unwritable directory) disable this instance's writer and
// report false — the store degrades to read-only, never errors out.
func (st *StaticDiskStore) Put(d int32, blob []byte) bool {
	if st == nil || len(blob) == 0 || d < 0 || d >= st.n {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	if _, ok := st.index[d]; ok {
		return false
	}
	rec, ok := st.appendLocked(diskRecMagic, uint32(d), blob)
	if !ok {
		return false
	}
	st.index[d] = rec
	st.afterAppendLocked()
	return true
}

// appendLocked writes one record (header + blob) to this instance's
// segment, returning its location. Callers hold the mutex, have
// checked closed, and register the returned record themselves.
func (st *StaticDiskStore) appendLocked(magic, destField uint32, blob []byte) (diskRec, bool) {
	if st.w == nil {
		if st.wDead || !st.openWriterLocked() {
			st.wDead = true
			return diskRec{}, false
		}
	}
	st.wbuf = st.wbuf[:0]
	st.wbuf = binary.LittleEndian.AppendUint32(st.wbuf, magic)
	st.wbuf = binary.LittleEndian.AppendUint32(st.wbuf, destField)
	st.wbuf = binary.LittleEndian.AppendUint32(st.wbuf, uint32(len(blob)))
	crc := crc32.Checksum(blob, castagnoli)
	st.wbuf = binary.LittleEndian.AppendUint32(st.wbuf, crc)
	st.wbuf = append(st.wbuf, blob...)
	if _, err := st.w.f.Write(st.wbuf); err != nil {
		// A partial append is a torn tail: scans stop at it, and this
		// instance stops appending to avoid interleaving garbage.
		st.closeWriterLocked()
		return diskRec{}, false
	}
	rec := diskRec{seg: st.w, off: st.wOff, len: int32(len(blob)), crc: crc}
	st.wOff += int64(len(st.wbuf))
	st.w.size = st.wOff
	return rec, true
}

// afterAppendLocked advances the write counters and flushes the index
// snapshot when due.
func (st *StaticDiskStore) afterAppendLocked() {
	st.writes++
	st.dirty++
	if st.dirty >= indexFlushEvery {
		st.flushIndexLocked()
	}
}

// PutSidecar appends a pristine-contribution sidecar record for
// (kind, d) unless one is already registered, reporting whether bytes
// were written. The destination must fit beside the kind in the header
// (d < 2^24 — comfortably above any graph this simulator runs).
func (st *StaticDiskStore) PutSidecar(kind uint8, d int32, payload []byte) bool {
	if st == nil || len(payload) == 0 || d < 0 || d >= st.n || d >= diskSidecarDestMax {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	key := diskSidecarKey(kind, d)
	if _, ok := st.scIndex[key]; ok {
		return false
	}
	rec, ok := st.appendLocked(diskSidecarMagic, uint32(kind)<<24|uint32(d), payload)
	if !ok {
		return false
	}
	st.scIndex[key] = rec
	st.afterAppendLocked()
	return true
}

// LookupSidecar returns the sidecar payload stored for (kind, d), or
// nil. Same trust discipline as Lookup: the CRC is verified here, the
// payload's own embedded (dest, kind) are cross-checked against the
// index key, and callers still run the fully validating DecodeSidecar
// — any failure there is reported via DropSidecar so the record can be
// repaired. A nil store always misses.
func (st *StaticDiskStore) LookupSidecar(kind uint8, d int32) []byte {
	if st == nil {
		return nil
	}
	st.mu.RLock()
	rec, ok := st.scIndex[diskSidecarKey(kind, d)]
	closed := st.closed
	st.mu.RUnlock()
	if !ok || closed {
		return nil
	}
	var b []byte
	if rec.seg.data != nil {
		b = rec.seg.data[rec.off+diskRecHeader : rec.off+diskRecHeader+int64(rec.len)]
	} else {
		b = make([]byte, rec.len)
		if !rec.seg.readAt(b, rec.off+diskRecHeader) {
			st.DropSidecar(kind, d)
			return nil
		}
	}
	if crc32.Checksum(b, castagnoli) != rec.crc {
		st.DropSidecar(kind, d)
		return nil
	}
	if sd, sk, ok := SidecarDest(b); !ok || sd != d || sk != kind {
		st.DropSidecar(kind, d)
		return nil
	}
	return b
}

// HasSidecar reports whether a sidecar record for (kind, d) is
// registered (without verifying its CRC). A nil store has nothing.
func (st *StaticDiskStore) HasSidecar(kind uint8, d int32) bool {
	if st == nil {
		return false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.scIndex[diskSidecarKey(kind, d)]
	return ok && !st.closed
}

// DropSidecar forgets the sidecar record for (kind, d) — a failed CRC
// or decode — so a later PutSidecar appends a fresh one.
func (st *StaticDiskStore) DropSidecar(kind uint8, d int32) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.scIndex, diskSidecarKey(kind, d))
}

// SidecarEntries returns the number of sidecar records currently
// served.
func (st *StaticDiskStore) SidecarEntries() int {
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.scIndex)
}

// PutStatic encodes s (which must carry winners — a PrepareDest or
// DecodePacked result) and Puts the blob. A nil store ignores it.
func (st *StaticDiskStore) PutStatic(s *Static) bool {
	if st == nil {
		return false
	}
	if st.Has(s.Dest) {
		return false // skip the encode, not just the write
	}
	buf := packedEncPool.Get().(*[]byte)
	blob := AppendPacked((*buf)[:0], s, st.g)
	ok := st.Put(s.Dest, blob)
	*buf = blob[:0]
	packedEncPool.Put(buf)
	return ok
}

// packedEncPool recycles PutStatic's encode buffers across the
// engine's worker goroutines.
var packedEncPool = sync.Pool{New: func() any { return new([]byte) }}

// openWriterLocked creates this instance's private append segment with
// a process-unique O_EXCL name.
func (st *StaticDiskStore) openWriterLocked() bool {
	pid := os.Getpid()
	for k := 0; k < 1000; k++ {
		name := fmt.Sprintf("seg-%08d-%03d.log", pid, k)
		f, err := os.OpenFile(filepath.Join(st.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			if os.IsExist(err) {
				continue
			}
			return false
		}
		st.w = &diskSegment{name: name, f: f}
		st.wOff = 0
		st.segs = append(st.segs, st.w)
		return true
	}
	return false
}

// closeWriterLocked retires a failed writer; records already appended
// stay served via pread. The fd stays open — registered records still
// read through it — but this instance appends no more.
func (st *StaticDiskStore) closeWriterLocked() {
	st.w = nil
	st.wOff = 0
	st.wDead = true
}

// Entries returns the number of destinations currently served.
func (st *StaticDiskStore) Entries() int {
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.index)
}

// BytesOnDisk returns the total size of all known segment files.
func (st *StaticDiskStore) BytesOnDisk() int64 {
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	var b int64
	for _, seg := range st.segs {
		b += seg.size
	}
	return b
}

// Dir returns the store's keyed directory (under the caller's root).
func (st *StaticDiskStore) Dir() string {
	if st == nil {
		return ""
	}
	return st.dir
}

// Flush writes the index snapshot if appends happened since the last
// one. Records are durable without it; the snapshot only spares the
// next opener the segment scan.
func (st *StaticDiskStore) Flush() {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.closed && st.dirty > 0 {
		st.flushIndexLocked()
	}
}

// Close flushes the index, unmaps and closes every segment. Lookup and
// Put on a closed store miss and refuse silently.
func (st *StaticDiskStore) Close() error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	if st.dirty > 0 {
		st.flushIndexLocked()
	}
	st.closed = true
	for _, seg := range st.segs {
		munmap(seg.data)
		seg.data = nil
		seg.f.Close()
	}
	st.index = map[int32]diskRec{}
	st.scIndex = map[int64]diskRec{}
	st.w = nil
	return nil
}

// indexRec is one record entry in index.bin. kflag distinguishes the
// record kinds: 0 is a packed static, k+1 is a sidecar of kind k.
type indexRec struct {
	dest  int32
	off   int64
	len   int32
	crc   uint32
	kflag uint8
}

// flushIndexLocked atomically replaces index.bin with a snapshot of
// the current in-memory index, recording per segment the validated
// byte range and its records.
func (st *StaticDiskStore) flushIndexLocked() {
	bySeg := map[*diskSegment][]indexRec{}
	for d, r := range st.index {
		bySeg[r.seg] = append(bySeg[r.seg], indexRec{dest: d, off: r.off, len: r.len, crc: r.crc})
	}
	for k, r := range st.scIndex {
		bySeg[r.seg] = append(bySeg[r.seg], indexRec{
			dest: int32(uint32(k)), off: r.off, len: r.len, crc: r.crc, kflag: uint8(k>>32) + 1,
		})
	}
	segs := append([]*diskSegment(nil), st.segs...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].name < segs[j].name })

	buf := make([]byte, 0, 16+21*(len(st.index)+len(st.scIndex)))
	buf = binary.LittleEndian.AppendUint32(buf, diskIndexMagic)
	buf = binary.LittleEndian.AppendUint32(buf, diskIndexVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(segs)))
	for _, seg := range segs {
		recs := bySeg[seg]
		sort.Slice(recs, func(i, j int) bool { return recs[i].off < recs[j].off })
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seg.name)))
		buf = append(buf, seg.name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(seg.size))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
		for _, r := range recs {
			buf = append(buf, r.kflag)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.dest))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.off))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.len))
			buf = binary.LittleEndian.AppendUint32(buf, r.crc)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	if writeDiskFileAtomic(filepath.Join(st.dir, "index.bin"), buf) == nil {
		st.dirty = 0
	}
}

// loadDiskIndex parses index.bin into per-segment covered ranges and
// record lists. Any structural problem or CRC mismatch discards the
// whole index — open falls back to scanning, never to trusting.
func loadDiskIndex(path string, covered map[string]int64, indexed map[string][]indexRec) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < 16 {
		return
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return
	}
	off := 0
	u32 := func() (uint32, bool) {
		if off+4 > len(body) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if off+8 > len(body) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v, true
	}
	magic, ok1 := u32()
	ver, ok2 := u32()
	nSegs, ok3 := u32()
	if !ok1 || !ok2 || !ok3 || magic != diskIndexMagic || ver != diskIndexVersion || nSegs > 1<<20 {
		return
	}
	cov := map[string]int64{}
	idx := map[string][]indexRec{}
	for s := uint32(0); s < nSegs; s++ {
		nameLen, ok := u32()
		if !ok || nameLen > 256 || off+int(nameLen) > len(body) {
			return
		}
		name := string(body[off : off+int(nameLen)])
		off += int(nameLen)
		cvd, ok1 := u64()
		nRecs, ok2 := u32()
		if !ok1 || !ok2 || cvd > 1<<62 || nRecs > 1<<28 {
			return
		}
		recs := make([]indexRec, 0, nRecs)
		for r := uint32(0); r < nRecs; r++ {
			if off >= len(body) {
				return
			}
			kf := body[off]
			off++
			dest, ok1 := u32()
			ro, ok2 := u64()
			rl, ok3 := u32()
			rc, ok4 := u32()
			if !ok1 || !ok2 || !ok3 || !ok4 || ro > 1<<62 || rl > 1<<31-1 {
				return
			}
			recs = append(recs, indexRec{dest: int32(dest), off: int64(ro), len: int32(rl), crc: rc, kflag: kf})
		}
		cov[name] = int64(cvd)
		idx[name] = recs
	}
	if off != len(body) {
		return
	}
	for k, v := range cov {
		covered[k] = v
	}
	for k, v := range idx {
		indexed[k] = v
	}
}

// writeDiskFileAtomic writes data to path via a same-directory temp
// file and rename, so readers never observe a partial file (the same
// discipline the experiment store uses for its snapshots; duplicated
// here because routing must not depend on internal/experiments).
func writeDiskFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Shared per-process instances. Engines have no Close hook and many
// Sims typically run on one graph, so each (root, graph, tiebreaker)
// triple gets one memoized instance — avoiding an fd and mapping per
// Sim, and letting later Sims see records the earlier ones appended
// without reopening. The graph fingerprint is memoized by pointer
// under the same contract the experiment store uses: a graph must not
// be mutated after its first store use.
var sharedDisk struct {
	mu     sync.Mutex
	fps    map[*asgraph.Graph]string
	stores map[string]*StaticDiskStore
}

// SharedStaticDiskStore returns the process-wide store instance for
// (root, g, tb), opening it on first use. Errors are returned to let
// callers degrade (run without the tier); a nil *StaticDiskStore is
// safe everywhere.
func SharedStaticDiskStore(root string, g *asgraph.Graph, tb Tiebreaker) (*StaticDiskStore, error) {
	if tb == nil {
		tb = HashTiebreaker{}
	}
	tbw, err := EncodeTiebreaker(tb)
	if err != nil {
		return nil, fmt.Errorf("routing: disk store: %w", err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		abs = root
	}
	sharedDisk.mu.Lock()
	defer sharedDisk.mu.Unlock()
	if sharedDisk.fps == nil {
		sharedDisk.fps = map[*asgraph.Graph]string{}
		sharedDisk.stores = map[string]*StaticDiskStore{}
	}
	fp, ok := sharedDisk.fps[g]
	if !ok {
		fp = asgraph.Fingerprint(g)
		sharedDisk.fps[g] = fp
	}
	key := abs + "\x00" + diskStoreKey(fp, tbw)
	if st, ok := sharedDisk.stores[key]; ok {
		return st, nil
	}
	st, err := openDiskStore(abs, g, fp, tb)
	if err != nil {
		return nil, err
	}
	sharedDisk.stores[key] = st
	return st, nil
}

// CloseSharedDiskStores flushes and closes every store
// SharedStaticDiskStore opened in this process, and forgets them so
// later calls reopen fresh instances. CLIs call it at exit so the next
// process opens against an index snapshot instead of a segment scan;
// tests use it to simulate a restart. Callers must ensure no
// simulation is mid-round.
func CloseSharedDiskStores() {
	sharedDisk.mu.Lock()
	defer sharedDisk.mu.Unlock()
	for _, st := range sharedDisk.stores {
		st.Close()
	}
	sharedDisk.stores = map[string]*StaticDiskStore{}
	sharedDisk.fps = map[*asgraph.Graph]string{}
}
