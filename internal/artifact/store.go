// Package artifact implements the persistent workload-artifact store:
// a directory of checksummed, versioned files holding the expensive
// per-benchmark preparation products (serialized traces, producer links,
// classification preps, IW characteristic fits and miss statistics),
// keyed by *content* — the generation recipe and the configuration
// projection that determines the artifact — never by in-memory identity.
//
// The store is what lets a freshly started fomodeld answer cache-cold
// requests at close to cache-hot speed: artifacts survive restarts and
// are shared across processes, so the daemon re-reads a few hundred
// kilobytes instead of regenerating a trace and re-running functional
// classification passes.
//
// Every artifact file is self-describing and self-verifying:
//
//	magic    [4]byte  "FOAS"
//	version  uint32   store format version (FormatVersion)
//	keyLen   uint32   length of the full content key
//	key      []byte   "<kind>\x00<key>" — verified on read
//	payLen   uint64   payload length
//	payload  []byte
//	crc      uint32   IEEE CRC-32 of the payload
//
// All integers are little-endian. A reader rejects (and deletes) any
// file whose magic, version, embedded key, length, or checksum does not
// match — a corrupted, truncated, stale-version, or hash-colliding file
// is reported as a miss and the artifact is recomputed, never served.
// Writes go to a temporary file in the same directory and are renamed
// into place, so a crash mid-write can never leave a half-written file
// under an artifact's name.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fomodel/internal/metrics"
)

// FormatVersion is the on-disk format version. Bumping it invalidates
// every existing artifact: readers reject files written under any other
// version, so a format change degrades to recomputation, never to
// misinterpreted bytes.
const FormatVersion = 1

var storeMagic = [4]byte{'F', 'O', 'A', 'S'}

// maxKeyBytes bounds the embedded key; content keys are short
// human-readable strings, so anything larger is corruption.
const maxKeyBytes = 1 << 16

// maxPayloadBytes bounds a single artifact payload (a 5M-instruction
// trace is ~120 MB; this leaves headroom without trusting a forged
// length field to allocate arbitrarily).
const maxPayloadBytes = 1 << 30

// Store is a content-keyed artifact directory. The zero value is not
// usable; call Open. A nil *Store is valid and disables persistence:
// Get always misses and Put discards.
type Store struct {
	dir      string
	maxBytes int64

	// mu serializes eviction scans; reads and writes of individual
	// artifacts need no lock (rename is atomic, partially evicted reads
	// degrade to misses).
	mu sync.Mutex

	hits, misses, corrupt, writes, evictions metrics.Counter
}

// Open prepares the store rooted at dir, creating it when absent.
// maxBytes bounds the store's total size: after each write, the
// least-recently-written artifacts are evicted until the total is under
// the bound again. Zero means unbounded.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// Dir returns the store's root directory; empty on a nil store.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// fullKey is the namespaced content key embedded in (and verified
// against) every artifact file.
func fullKey(kind, key string) string { return kind + "\x00" + key }

// path maps a (kind, key) pair to its file: the kind plus a SHA-256 of
// the full key, so arbitrary key strings never meet the filesystem and
// two kinds can never collide.
func (s *Store) path(kind, key string) string {
	sum := sha256.Sum256([]byte(fullKey(kind, key)))
	return filepath.Join(s.dir, kind+"-"+hex.EncodeToString(sum[:])+".foa")
}

// Get returns the payload stored under (kind, key), or ok=false when the
// store has no valid artifact for it. Any structurally invalid file —
// truncated, checksum mismatch, wrong format version, or a key collision
// — is deleted and reported as a miss, so a damaged store heals itself
// through recomputation.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	p := s.path(kind, key)
	data, err := os.ReadFile(p)
	if err != nil {
		s.misses.Inc()
		return nil, false
	}
	payload, err := decodeFile(data, fullKey(kind, key))
	if err != nil {
		// Invalid on disk: delete so the slot is rewritten cleanly.
		s.corrupt.Inc()
		s.misses.Inc()
		//folint:allow(errdrop) best-effort delete of a corrupt artifact; the miss is already being returned
		os.Remove(p)
		return nil, false
	}
	s.hits.Inc()
	// Eviction is documented as mtime-ordered, which is only true if a
	// verified hit refreshes the file's mtime; without this a hot
	// artifact written early is evicted before a cold one written later
	// (insertion-order FIFO).
	now := time.Now()
	//folint:allow(errdrop) best-effort recency bump; a failed Chtimes only weakens eviction ordering
	os.Chtimes(p, now, now)
	return payload, true
}

// Put stores payload under (kind, key), atomically replacing any
// previous artifact, then evicts oldest artifacts while the store
// exceeds its size bound. Put failures are returned but are always safe
// to ignore: the store is a cache, and a failed write only costs a
// future recomputation.
func (s *Store) Put(kind, key string, payload []byte) error {
	if s == nil {
		return nil
	}
	data := encodeFile(fullKey(kind, key), payload)
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		//folint:allow(errdrop) cleanup of the temp file after a failed write; the write error is what the caller sees
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("artifact: write %s: %w", kind, werr)
	}
	if err := os.Rename(tmp.Name(), s.path(kind, key)); err != nil {
		//folint:allow(errdrop) cleanup of the temp file after a failed rename; the rename error is what the caller sees
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: %w", err)
	}
	s.writes.Inc()
	s.enforceLimit()
	return nil
}

// encodeFile frames key and payload in the on-disk format.
func encodeFile(key string, payload []byte) []byte {
	buf := make([]byte, 0, 4+4+4+len(key)+8+len(payload)+4)
	buf = append(buf, storeMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf
}

// decodeFile validates every field of an artifact file against the
// expected full key and returns the payload.
func decodeFile(data []byte, wantKey string) ([]byte, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("artifact: truncated header")
	}
	if [4]byte(data[:4]) != storeMagic {
		return nil, fmt.Errorf("artifact: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("artifact: format version %d, want %d", v, FormatVersion)
	}
	keyLen := binary.LittleEndian.Uint32(data[8:12])
	if keyLen > maxKeyBytes || len(data) < 12+int(keyLen)+8 {
		return nil, fmt.Errorf("artifact: truncated key")
	}
	if string(data[12:12+keyLen]) != wantKey {
		return nil, fmt.Errorf("artifact: key mismatch")
	}
	rest := data[12+keyLen:]
	payLen := binary.LittleEndian.Uint64(rest[:8])
	if payLen > maxPayloadBytes || uint64(len(rest)) != 8+payLen+4 {
		return nil, fmt.Errorf("artifact: truncated payload")
	}
	payload := rest[8 : 8+payLen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[8+payLen:]) {
		return nil, fmt.Errorf("artifact: checksum mismatch")
	}
	return payload, nil
}

// enforceLimit evicts the oldest artifacts (by modification time) until
// the store fits its size bound.
func (s *Store) enforceLimit() {
	if s.maxBytes <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type file struct {
		path string
		size int64
		mod  int64
	}
	//folint:allow(lockheld) eviction is deliberately serialized under s.mu; Get/Put never take this lock, so no request waits on the scan
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var files []file
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		files = append(files, file{
			path: filepath.Join(s.dir, e.Name()),
			size: info.Size(),
			mod:  info.ModTime().UnixNano(),
		})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files {
		if total <= s.maxBytes {
			return
		}
		//folint:allow(lockheld) same deliberate serialization as the ReadDir above; only a concurrent eviction would wait
		if os.Remove(f.path) == nil {
			total -= f.size
			s.evictions.Inc()
		}
	}
}

// SizeBytes reports the store's current on-disk size; zero on a nil
// store.
func (s *Store) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// Stats reports the store's hit/miss/corrupt/write/eviction counts; all
// zero on a nil store.
func (s *Store) Stats() (hits, misses, corrupt, writes, evictions int64) {
	if s == nil {
		return 0, 0, 0, 0, 0
	}
	return s.hits.Load(), s.misses.Load(), s.corrupt.Load(),
		s.writes.Load(), s.evictions.Load()
}
