package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
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
// The segments are the store's only index: open walks every segment's
// record headers (one header read per record; the blobs stay unread)
// and registers each record in one map keyed by its header's own
// (magic, dest field) pair. Nothing but meta.json is written beside
// them, so a crash leaves nothing to rebuild and Close nothing to
// flush; an index.bin left by older builds is ignored.
//
// Everything read back is untrusted: a record is served only if its
// blob matches the CRC recorded for it, and the engine decodes a served
// static with every check live (DecodePacked; DecodePackedTrusted
// states the model). Any validation failure — bad meta, bad header, bad
// CRC, bad decode (reported via Drop) — makes the affected records
// invisible, so the caller recomputes and the store repairs itself by
// appending fresh records. Results are
// therefore bit-identical with the store absent, cold, warm, or
// arbitrarily corrupted.
//
// Every read is a pread (os.File.ReadAt) into a buffer the caller owns
// and reuses: the engine copies what it keeps into the resident tier or
// decodes and drops it, so a mapping would save one small copy per hit
// and cost residency instead. Faulting a mapped segment also maps the
// cached pages around each fault, so reading one small sidecar every
// few kilobytes would make the whole segment resident in the process;
// and a foreign segment truncated under a mapping would fault fatally
// where a pread comes back short and the record is dropped.

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
	// diskRecHeader is the fixed record header size: magic, dest,
	// length, CRC-32C — four little-endian uint32s.
	diskRecHeader = 16
)

// castagnoli is the CRC-32C table; Castagnoli detects all single-bit
// and single-byte errors, which is what the corruption sweep relies on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// diskSegment is one on-disk segment file. f is immutable after open;
// size is the validated byte range — records are only ever registered
// inside it, and for the writer segment it advances under the store
// mutex as records are appended.
type diskSegment struct {
	f    *os.File
	size int64
}

// diskRec locates one record inside a segment.
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

	mu     sync.RWMutex
	recs   map[int64]diskRec // every served record, keyed by diskKey
	segs   []*diskSegment    // all open segments, writer last when present
	w      *diskSegment      // this instance's append segment; nil until first Put
	wOff   int64
	wDead  bool // a write failed: this instance is read-only from now on
	wbuf   []byte
	closed bool
}

// diskKey is a record's key in the store's one record map: its
// header's own (magic, dest field) pair, so a static and the sidecars
// of one destination never collide. Every real key is positive; -1
// names no record.
func diskKey(magic, field uint32) int64 {
	return int64(magic)<<32 | int64(field)
}

// diskStaticKey is the key of destination d's packed static.
func diskStaticKey(d int32) int64 {
	if d < 0 {
		return -1
	}
	return diskKey(diskRecMagic, uint32(d))
}

// diskSidecarKey is the key of destination d's sidecar of the given
// kind; a destination that does not fit beside the kind has none.
func diskSidecarKey(kind uint8, d int32) int64 {
	if d < 0 || d >= diskSidecarDestMax {
		return -1
	}
	return diskKey(diskSidecarMagic, uint32(kind)<<24|uint32(d))
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
// an error. The caller owns the instance and should Close it to release
// its files; records themselves are durable at Put.
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
		g:    g,
		dir:  dir,
		n:    int32(g.N()),
		recs: make(map[int64]diskRec),
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
		seg, err := st.openSegment(nm)
		if err != nil {
			continue // unreadable segment: its records recompute
		}
		st.segs = append(st.segs, seg)
	}
	return st, nil
}

// openSegment opens one existing segment and scans it whole; the fd
// stays open to serve its records.
func (st *StaticDiskStore) openSegment(name string) (*diskSegment, error) {
	f, err := os.Open(filepath.Join(st.dir, name))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	seg := &diskSegment{f: f, size: fi.Size()}
	st.scanSegment(seg)
	return seg, nil
}

// scanSegment structurally walks seg's records, registering each
// well-formed one (last record wins — by determinism every valid blob
// for a key is identical, and last-wins lets repair appends supersede
// corrupt records). Static (SBS1) and sidecar (SBS2) records interleave
// freely. The walk stops at the first malformed header or overrun:
// everything beyond it is a torn tail (or foreign garbage) and stays
// invisible.
func (st *StaticDiskStore) scanSegment(seg *diskSegment) {
	var hdr [diskRecHeader]byte
	for off := int64(0); off+diskRecHeader <= seg.size; {
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			return
		}
		magic := binary.LittleEndian.Uint32(hdr[0:])
		field := binary.LittleEndian.Uint32(hdr[4:])
		blen := int64(binary.LittleEndian.Uint32(hdr[8:]))
		dest := field
		if magic == diskSidecarMagic {
			dest &= diskSidecarDestMax - 1 // the kind rides in the top byte
		}
		// A length past int32 cannot be a record this store wrote (and
		// would turn negative in diskRec.len): malformed, like the rest.
		if magic != diskRecMagic && magic != diskSidecarMagic || dest >= uint32(st.n) ||
			blen == 0 || blen > math.MaxInt32 || off+diskRecHeader+blen > seg.size {
			return
		}
		crc := binary.LittleEndian.Uint32(hdr[12:])
		st.recs[diskKey(magic, field)] = diskRec{seg: seg, off: off, len: int32(blen), crc: crc}
		off += diskRecHeader + blen
	}
}

// Lookup returns the packed blob stored for destination d, or nil, in
// a fresh slice the caller owns: LookupInto with no buffer.
func (st *StaticDiskStore) Lookup(d int32) []byte { return st.LookupInto(d, nil) }

// LookupInto returns the packed blob stored for destination d, or nil,
// read into the caller's buffer *buf: the blob is a prefix of *buf,
// which is replaced by a larger slice when its capacity is short, so a
// caller that reads every record into one buffer allocates only while
// the buffer grows. The blob stays valid until the next read into *buf;
// a nil buf reads into a fresh slice. The blob's CRC is verified here
// (catching every single-byte flip); callers decode it with full
// validation (DecodePacked) and report a decode failure via Drop so the
// record can be repaired. A nil store always misses.
func (st *StaticDiskStore) LookupInto(d int32, buf *[]byte) []byte {
	return st.lookup(diskStaticKey(d), buf, func(b []byte) bool {
		pd, ok := PackedDest(b)
		return ok && pd == d
	})
}

// LookupSidecar returns the sidecar payload stored for (kind, d), or
// nil, read into *buf as LookupInto reads a blob. Same trust discipline:
// the CRC is verified here, the payload's own embedded (dest, kind) are
// cross-checked against the key, and callers still run the fully
// validating DecodeSidecar — any failure there is reported via
// DropSidecar so the record can be repaired. A nil store always misses.
func (st *StaticDiskStore) LookupSidecar(kind uint8, d int32, buf *[]byte) []byte {
	return st.lookup(diskSidecarKey(kind, d), buf, func(b []byte) bool {
		sd, sk, ok := SidecarDest(b)
		return ok && sd == d && sk == kind
	})
}

// lookup serves the record under key, read into *buf, once its blob
// passes its CRC and owns, the embedded-destination check of the
// record's kind: the CRC covers only the blob, so a flipped dest byte in
// the header would register a perfectly valid blob under the wrong key.
// A record that fails either is dropped, and so is one that no longer
// reads whole (a foreign segment truncated under this store, or a store
// closed mid-read).
func (st *StaticDiskStore) lookup(key int64, buf *[]byte, owns func([]byte) bool) []byte {
	if st == nil {
		return nil
	}
	st.mu.RLock()
	rec, ok := st.recs[key]
	closed := st.closed
	st.mu.RUnlock()
	if !ok || closed {
		return nil
	}
	if buf == nil {
		buf = new([]byte)
	}
	if cap(*buf) < int(rec.len) {
		*buf = make([]byte, rec.len)
	}
	b := (*buf)[:rec.len]
	if _, err := rec.seg.f.ReadAt(b, rec.off+diskRecHeader); err != nil {
		st.drop(key)
		return nil
	}
	if crc32.Checksum(b, castagnoli) != rec.crc || !owns(b) {
		st.drop(key)
		return nil
	}
	return b
}

// Has reports whether a record for d is registered (without verifying
// its CRC). A nil store has nothing.
func (st *StaticDiskStore) Has(d int32) bool { return st.has(diskStaticKey(d)) }

// HasSidecar reports whether a sidecar record for (kind, d) is
// registered (without verifying its CRC). A nil store has nothing.
func (st *StaticDiskStore) HasSidecar(kind uint8, d int32) bool {
	return st.has(diskSidecarKey(kind, d))
}

func (st *StaticDiskStore) has(key int64) bool {
	if st == nil {
		return false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.recs[key]
	return ok && !st.closed
}

// Drop forgets the record for d — a failed CRC or decode — so a later
// Put appends a fresh one: the self-repair path. The bytes on disk are
// left alone (another process may be reading the file).
func (st *StaticDiskStore) Drop(d int32) { st.drop(diskStaticKey(d)) }

// DropSidecar forgets the sidecar record for (kind, d) — a failed CRC
// or decode — so a later PutSidecar appends a fresh one.
func (st *StaticDiskStore) DropSidecar(kind uint8, d int32) { st.drop(diskSidecarKey(kind, d)) }

func (st *StaticDiskStore) drop(key int64) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.recs, key)
}

// Put appends a record for destination d unless one is already
// registered, reporting whether bytes were written. Append failures
// (disk full, unwritable directory) disable this instance's writer and
// report false — the store degrades to read-only, never errors out.
func (st *StaticDiskStore) Put(d int32, blob []byte) bool {
	return st.put(diskStaticKey(d), d, blob)
}

// PutSidecar appends a pristine-contribution sidecar record for
// (kind, d) unless one is already registered, reporting whether bytes
// were written. The destination must fit beside the kind in the header
// (d < 2^24 — comfortably above any graph this simulator runs).
func (st *StaticDiskStore) PutSidecar(kind uint8, d int32, payload []byte) bool {
	return st.put(diskSidecarKey(kind, d), d, payload)
}

// put appends blob as the record under key (destination d's) to this
// instance's segment and registers it.
func (st *StaticDiskStore) put(key int64, d int32, blob []byte) bool {
	if st == nil || len(blob) == 0 || key < 0 || d >= st.n {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	if _, ok := st.recs[key]; ok {
		return false
	}
	if st.w == nil {
		if st.wDead || !st.openWriterLocked() {
			st.wDead = true
			return false
		}
	}
	st.wbuf = st.wbuf[:0]
	st.wbuf = binary.LittleEndian.AppendUint32(st.wbuf, uint32(key>>32))
	st.wbuf = binary.LittleEndian.AppendUint32(st.wbuf, uint32(key))
	st.wbuf = binary.LittleEndian.AppendUint32(st.wbuf, uint32(len(blob)))
	crc := crc32.Checksum(blob, castagnoli)
	st.wbuf = binary.LittleEndian.AppendUint32(st.wbuf, crc)
	st.wbuf = append(st.wbuf, blob...)
	if _, err := st.w.f.Write(st.wbuf); err != nil {
		// A partial append is a torn tail: scans stop at it, and this
		// instance stops appending to avoid interleaving garbage.
		st.closeWriterLocked()
		return false
	}
	st.recs[key] = diskRec{seg: st.w, off: st.wOff, len: int32(len(blob)), crc: crc}
	st.wOff += int64(len(st.wbuf))
	st.w.size = st.wOff
	return true
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
		st.w = &diskSegment{f: f}
		st.wOff = 0
		st.segs = append(st.segs, st.w)
		return true
	}
	return false
}

// closeWriterLocked retires a failed writer; records already appended
// stay served. The fd stays open — registered records still read
// through it — but this instance appends no more.
func (st *StaticDiskStore) closeWriterLocked() {
	st.w = nil
	st.wOff = 0
	st.wDead = true
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

// Close closes every segment. Lookup and Put on a closed store miss and
// refuse silently; a Lookup that overlaps Close may still be served.
func (st *StaticDiskStore) Close() error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	for _, seg := range st.segs {
		seg.f.Close()
	}
	st.recs = nil
	st.w = nil
	return nil
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
// triple gets one memoized instance — avoiding an fd per segment per
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

// CloseSharedDiskStores closes every store SharedStaticDiskStore
// opened in this process, and forgets them so later calls reopen fresh
// instances that scan the segments as a new process would: tests and
// benchmarks use it to simulate a restart. Callers must ensure no
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
