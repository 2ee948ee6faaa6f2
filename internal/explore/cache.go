package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Cache is a content-addressed result store kept as append-only logs in one
// directory. Each Cache appends to a log of its own, log-NNNNNN.jsonl, which
// its first Put creates under the lowest free number. Every entry is one
// line, written by a single write(2):
//
//	<content address> <CRC-32 of address and entry, 8 hex digits> <entry>
//
// where the entry is EncodeEntry's bytes (a JSON object and its newline).
// Lookups read an in-memory index from content address to entry. The first
// lookup builds it from every log, and a miss refreshes it from the bytes
// appended since, by this or any other Cache or process, and from logs
// created since. So a directory can be shared by concurrent workers,
// including the processes of a sweep fleet, and re-used across restarts
// (the -resume mechanism of risppexplore). A refresh stats each log once
// and probes the next free number; it never lists the directory. A Cache
// keeps its log open for as long as it lives; the runtime closes it when
// the Cache is collected.
//
// A crash mid-append leaves a line without its newline, which is never
// indexed, nor is a line whose CRC fails; an entry whose stored key is not
// the requested point's is a miss. A damaged log thus loses entries but never
// returns a wrong result. Of several records for one address, the last one
// read wins. Files other than the logs, such as the <hash>.json files of the
// one-file-per-point layout of earlier versions, are not read.
type Cache struct {
	dir string

	// WriteOnly disables Get and GetRaw: every point re-simulates and
	// appends a superseding record — the risppexplore -resume=false mode.
	WriteOnly bool

	mu    sync.Mutex
	log   *os.File // this Cache's log; nil before the first Put and after a failed append
	own   int      // number of the log, 0 while log is nil
	index map[[sha256.Size]byte][]byte
	logs  map[int]*logPos // every log read so far, by number
	top   int             // highest log number known to be taken
}

// logPos is a log read so far: off is the start of its first unindexed
// line and size the file size at the last read, so an unchanged log (a
// torn tail included) is not read again.
type logPos struct {
	path      string
	off, size int64
}

// Store is the result-cache interface the exploration engine consults
// before and fills after every job. *Cache is the canonical implementation
// (content-addressed disk logs); internal/fabric layers a peer-backed tier
// on top so a worker fleet shares one logical cache.
type Store interface {
	// Get returns the cached metrics of the point, if present and valid.
	Get(p Point) (Metrics, bool)
	// Put stores the metrics of a completed simulation.
	Put(p Point, m Metrics) error
}

// OpenCache opens (creating if needed) a cache directory. It reads no log:
// the first lookup builds the index.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("explore: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// cacheEntry is the stored (and cache-peer wire) format. The full
// canonical key is stored and verified on read, so a corrupt or foreign
// entry is treated as a miss rather than returned as a wrong result.
type cacheEntry struct {
	Key string `json:"key"`
	Metrics
}

// EncodeEntry renders the canonical stored form of a cached result — the
// entry Put appends and the body of the cache-peer protocol's GET/PUT.
func EncodeEntry(p Point, m Metrics) []byte { return encodeEntry(p.Key(), m) }

func encodeEntry(key string, m Metrics) []byte {
	b, err := json.Marshal(cacheEntry{Key: key, Metrics: m})
	if err != nil {
		panic(fmt.Sprintf("explore: marshal cache entry: %v", err)) // plain scalars; cannot fail
	}
	return append(b, '\n')
}

// DecodeEntry parses a stored entry and validates it against the point it
// was requested for; a mismatch (corruption, foreign entry) is a miss.
func DecodeEntry(p Point, b []byte) (Metrics, bool) { return decodeEntry(p.Key(), b) }

func decodeEntry(key string, b []byte) (Metrics, bool) {
	var e cacheEntry
	if json.Unmarshal(b, &e) != nil || e.Key != key {
		return Metrics{}, false
	}
	return e.Metrics, true
}

// ValidEntryForHash reports whether b is a well-formed entry whose stored
// key hashes to hash — the integrity check of the cache-peer PUT path,
// where the receiver knows only the content address.
func ValidEntryForHash(hash string, b []byte) bool {
	var e cacheEntry
	if json.Unmarshal(b, &e) != nil || e.Key == "" {
		return false
	}
	h := sha256.Sum256([]byte(e.Key))
	return hex.EncodeToString(h[:]) == hash
}

// ValidHash reports whether s has the exact shape of a point content
// address (64 lowercase hex digits). Anything else must be rejected before
// it is used as one — the hash arrives over HTTP in the cache-peer
// protocol.
func ValidHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get returns the cached metrics of the point, if present and valid.
func (c *Cache) Get(p Point) (Metrics, bool) {
	if c.WriteOnly {
		return Metrics{}, false
	}
	key := p.Key()
	b, ok := c.lookup(sha256.Sum256([]byte(key)))
	if !ok {
		return Metrics{}, false
	}
	return decodeEntry(key, b)
}

// Put stores the metrics of a completed simulation.
func (c *Cache) Put(p Point, m Metrics) error {
	key := p.Key()
	return c.appendRecord(sha256.Sum256([]byte(key)), encodeEntry(key, m))
}

// GetRaw returns the stored entry bytes for a content address — the
// cache-peer GET path. The bytes are the index's own and must not be
// modified. The key inside is not checked here: the peer's DecodeEntry
// does that.
func (c *Cache) GetRaw(hash string) ([]byte, bool) {
	if c.WriteOnly || !ValidHash(hash) {
		return nil, false
	}
	var addr [sha256.Size]byte
	hex.Decode(addr[:], []byte(hash)) //nolint:errcheck // ValidHash checked the digits
	return c.lookup(addr)
}

// PutRaw stores entry bytes under their content address — the cache-peer
// PUT path. The body is validated against the hash (ValidEntryForHash), so
// a peer cannot poison the store with a mislabeled result. A body that is
// not one line of JSON is compacted to one: a newline inside it would split
// the record, and a missing one would join the next record to it.
func (c *Cache) PutRaw(hash string, b []byte) error {
	if !ValidHash(hash) {
		return fmt.Errorf("explore: cache put: invalid content address %q", hash)
	}
	if !ValidEntryForHash(hash, b) {
		return fmt.Errorf("explore: cache put: entry does not match content address %s", hash)
	}
	if bytes.IndexByte(b, '\n') != len(b)-1 {
		var line bytes.Buffer
		json.Compact(&line, b) //nolint:errcheck // ValidEntryForHash parsed it
		b = append(line.Bytes(), '\n')
	}
	var addr [sha256.Size]byte
	hex.Decode(addr[:], []byte(hash)) //nolint:errcheck // ValidHash checked the digits
	return c.appendRecord(addr, b)
}

// Len counts the distinct content addresses stored.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refresh()
	return len(c.index)
}

const (
	addrLen   = 2 * sha256.Size // hex digits of a content address
	headerLen = addrLen + 1 + 8 + 1
)

// crcDigits is the checksum a record carries, as it writes it: the CRC-32
// (IEEE) of the address digits and the entry, newline included, in 8
// lowercase hex digits.
func crcDigits(addr, entry []byte) (d [8]byte) {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Update(crc32.ChecksumIEEE(addr), crc32.IEEETable, entry))
	hex.Encode(d[:], sum[:])
	return d
}

// appendRecord writes one record to this Cache's log, creating the log first if
// it has none. A failed write drops the log, so the next Put starts a
// fresh one rather than appending after a torn line.
func (c *Cache) appendRecord(addr [sha256.Size]byte, entry []byte) error {
	line := make([]byte, headerLen, headerLen+len(entry))
	hex.Encode(line, addr[:])
	line[addrLen] = ' '
	sum := crcDigits(line[:addrLen], entry)
	copy(line[addrLen+1:], sum[:])
	line[headerLen-1] = ' '
	line = append(line, entry...)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		if err := c.create(); err != nil {
			return fmt.Errorf("explore: cache put: %w", err)
		}
	}
	if _, err := c.log.Write(line); err != nil {
		c.log.Close() //nolint:errcheck // already failing; the log is abandoned
		c.log, c.own = nil, 0
		return fmt.Errorf("explore: cache put: %w", err)
	}
	if c.index != nil { // the log is otherwise read when the index is built
		pos := c.logs[c.own]
		pos.off += int64(len(line))
		pos.size = pos.off
		c.index[addr] = line[headerLen:]
	}
	return nil
}

// create opens a new log under the lowest free number above the known
// logs.
func (c *Cache) create() error {
	for n := c.top + 1; ; n++ {
		path := c.logPath(n)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		c.log, c.own, c.top = f, n, n
		if c.index != nil {
			c.logs[n] = &logPos{path: path}
		}
		return nil
	}
}

func (c *Cache) logPath(n int) string {
	return filepath.Join(c.dir, fmt.Sprintf("log-%06d.jsonl", n))
}

// lookup returns the entry stored under addr, refreshing the index once on
// a miss (the first lookup builds it).
func (c *Cache) lookup(addr [sha256.Size]byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.index[addr]; ok {
		return b, true
	}
	c.refresh()
	b, ok := c.index[addr]
	return b, ok
}

// refresh indexes every complete record appended since the last refresh:
// it reads each known log that grew, each number below the highest known
// that may have filled in, and new logs above it until a number is free.
// This Cache's own log, once read, is indexed as it is written.
func (c *Cache) refresh() {
	if c.index == nil {
		c.index = make(map[[sha256.Size]byte][]byte)
		c.logs = make(map[int]*logPos)
	}
	for n := 1; n <= c.top+1; n++ {
		if pos, known := c.logs[n]; known {
			if n != c.own {
				c.read(pos)
			}
			continue
		}
		probe := logPos{path: c.logPath(n)}
		if c.read(&probe) {
			pos := probe // a copy, so a probe that finds nothing stays off the heap
			c.logs[n] = &pos
			c.top = max(c.top, n)
		}
	}
}

// read indexes the records of a log past its last read and reports whether
// the log exists.
func (c *Cache) read(pos *logPos) bool {
	fi, err := os.Stat(pos.path)
	if err != nil {
		return false
	}
	size := fi.Size()
	if size == pos.size {
		return true
	}
	if size < pos.off { // replaced or truncated: index it again
		pos.off = 0
	}
	f, err := os.Open(pos.path)
	if err != nil {
		return true
	}
	b := make([]byte, size-pos.off)
	k, _ := f.ReadAt(b, pos.off) // a short read leaves the rest for the next refresh
	f.Close()                    //nolint:errcheck // read-only
	done := c.indexRecords(b[:k])
	pos.off, pos.size = pos.off+int64(done), pos.off+int64(k)
	return true
}

// indexRecords indexes every complete line of b whose CRC matches and
// returns the length of the complete lines; the rest is a line still being
// written, or one a crash tore.
func (c *Cache) indexRecords(b []byte) int {
	done := 0
	for {
		i := bytes.IndexByte(b[done:], '\n')
		if i < 0 {
			return done
		}
		line := b[done : done+i+1]
		done += i + 1
		if len(line) <= headerLen || line[addrLen] != ' ' || line[headerLen-1] != ' ' {
			continue
		}
		var addr [sha256.Size]byte
		if _, err := hex.Decode(addr[:], line[:addrLen]); err != nil {
			continue
		}
		entry := line[headerLen:]
		if sum := crcDigits(line[:addrLen], entry); bytes.Equal(sum[:], line[addrLen+1:headerLen-1]) {
			c.index[addr] = entry
		}
	}
}
