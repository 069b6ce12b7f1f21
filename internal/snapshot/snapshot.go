// Package snapshot defines the versioned serving-table format that closes
// the train→publish→serve loop: a training session captures the two tables
// a replica answers every query from — each vertex's pooled embedding
// (paper Eq. 31) and, when the model has a classification head, its argmax
// class — publishes them atomically to a file, and a serving replica loads
// them as they are, repeatedly, as training republishes. The tables are the
// trainer's own evaluation outputs, so what a replica serves is what the
// trainer evaluated, by construction.
//
// A snapshot is not a checkpoint: it carries no weights, optimizer state or
// forest, and training cannot resume from it. nn.SaveParams (lumos-train
// -save) writes the weights.
//
// # Format (version 2)
//
// All integers are little-endian. Every length is bounded before anything
// is allocated for it, and the whole snapshot is covered by a CRC-32
// trailer, so truncation and bit flips fail loudly at decode time:
//
//	u32  magic "LSNP"
//	u32  format version (2)
//	u64  snapshot version (monotonically increasing across publishes;
//	     serving replicas swap only when it moves forward)
//	u32  metadata length + JSON Meta, exactly as Encode writes it
//	u32  classes (0 = no classification head)
//	u32  embedding length + tensor.Matrix binary encoding (N × OutDim)
//	u32  ×N each vertex's predicted class, < classes (only when classes > 0)
//	u32  CRC-32 (IEEE) of every preceding byte
//
// A format-1 file (model weights and training forest) is refused with an
// error saying to republish the model.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"lumos/internal/core"
	"lumos/internal/tensor"
)

const (
	magic         = uint32(0x4c534e50) // "LSNP"
	formatVersion = uint32(2)

	maxMetaLen   = 1 << 20
	maxMatrixLen = 1 << 30
	maxClasses   = 1 << 24
)

// Meta describes a snapshot for humans, dashboards, and swap ordering.
type Meta struct {
	// Version orders snapshots of one deployment: publishers increment it
	// (PublishNext) and servers hot-swap only when it moves forward.
	Version uint64 `json:"version"`
	// Task and Backbone echo the training configuration.
	Task     string `json:"task"`
	Backbone string `json:"backbone"`
	// Dataset names the graph the model was trained on.
	Dataset string `json:"dataset,omitempty"`
	// Seed is the training run seed.
	Seed int64 `json:"seed,omitempty"`
	// Round is how many epochs/rounds the published model had trained.
	Round int `json:"round,omitempty"`
	// Metric is the publisher's evaluation metric (MetricName says which).
	Metric     float64 `json:"metric,omitempty"`
	MetricName string  `json:"metric_name,omitempty"`
	// CreatedUnix is the publish time (informational only).
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Snapshot is a decoded (or captured) serving table.
type Snapshot struct {
	Meta    Meta
	Classes int            // head width; 0 = no classification head
	Emb     *tensor.Matrix // pooled per-vertex embeddings (N × OutDim)
	Preds   []int          // per-vertex argmax class, each < Classes; nil when Classes == 0
}

// Capture computes the system's serving tables (one evaluation-mode
// forward, which leaves training state untouched) into a snapshot that owns
// them, so training may continue, and republish later, without mutating
// the capture. meta.Task and meta.Backbone are filled from the system.
func Capture(sys *core.System, meta Meta) (*Snapshot, error) {
	if sys == nil || sys.Encoder == nil {
		return nil, fmt.Errorf("snapshot: nil system")
	}
	meta.Task = sys.Cfg.Task.String()
	meta.Backbone = sys.Cfg.Backbone.String()
	s := &Snapshot{Meta: meta}
	s.Emb, s.Preds = sys.ServingTables()
	if sys.Head != nil {
		s.Classes = sys.Head.Out
	}
	return s, nil
}

// check reports what makes the tables unservable: Encode refuses to write
// such a snapshot and Decode refuses to return one.
func (s *Snapshot) check() error {
	if s.Emb == nil || s.Emb.Rows() < 1 || s.Emb.Cols() < 1 {
		return fmt.Errorf("snapshot: empty embedding table")
	}
	if s.Classes == 0 {
		if s.Preds != nil {
			return fmt.Errorf("snapshot: predictions without a classification head")
		}
		return nil
	}
	if s.Classes < 2 || s.Classes > maxClasses {
		return fmt.Errorf("snapshot: classification head with %d classes", s.Classes)
	}
	if len(s.Preds) != s.Emb.Rows() {
		return fmt.Errorf("snapshot: %d predictions for %d vertices", len(s.Preds), s.Emb.Rows())
	}
	for v, c := range s.Preds {
		if c < 0 || c >= s.Classes {
			return fmt.Errorf("snapshot: vertex %d predicted class %d of %d", v, c, s.Classes)
		}
	}
	return nil
}

// formatError explains a header whose format this build does not read.
func formatError(format uint32) error {
	if format == 1 {
		return fmt.Errorf("snapshot: format version 1 (model weights and forest) is no longer read: republish the model")
	}
	return fmt.Errorf("snapshot: unsupported format version %d (this build reads %d)", format, formatVersion)
}

// Encode writes the snapshot to w in format version 2.
func (s *Snapshot) Encode(w io.Writer) error {
	if err := s.check(); err != nil {
		return err
	}
	metaJSON, err := json.Marshal(s.Meta)
	if err != nil {
		return fmt.Errorf("snapshot: encoding metadata: %w", err)
	}
	emb, err := s.Emb.MarshalBinary()
	if err != nil {
		return fmt.Errorf("snapshot: encoding embedding table: %w", err)
	}
	preds := make([]byte, 4*len(s.Preds))
	for v, c := range s.Preds {
		binary.LittleEndian.PutUint32(preds[4*v:], uint32(c))
	}

	bw := bufio.NewWriter(w)
	h := crc32.NewIEEE()
	e := &encoder{w: io.MultiWriter(bw, h)}
	e.u32(magic)
	e.u32(formatVersion)
	e.u64(s.Meta.Version)
	e.blob(metaJSON, maxMetaLen, "metadata")
	e.u32(uint32(s.Classes))
	e.blob(emb, maxMatrixLen, "embedding table")
	e.bytes(preds)
	if e.err != nil {
		return fmt.Errorf("snapshot: encoding: %w", e.err)
	}
	// The CRC trailer covers every byte written so far; it goes to the
	// stream only, not the hash.
	if err := binary.Write(bw, binary.LittleEndian, h.Sum32()); err != nil {
		return fmt.Errorf("snapshot: writing checksum: %w", err)
	}
	return bw.Flush()
}

// Decode reads one snapshot, verifying structure, bounds, the CRC trailer
// and the tables' consistency.
func Decode(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	h := crc32.NewIEEE()
	d := &decoder{r: io.TeeReader(br, h)}

	if got := d.u32(); d.err == nil && got != magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x (not a lumos snapshot)", got)
	}
	if v := d.u32(); d.err == nil && v != formatVersion {
		return nil, formatError(v)
	}
	s := &Snapshot{}
	version := d.u64()
	metaJSON := d.blob(maxMetaLen, "metadata")
	classes := d.u32()
	if d.err == nil && classes > maxClasses {
		return nil, fmt.Errorf("snapshot: class count %d exceeds bound %d (corrupt length field?)", classes, maxClasses)
	}
	s.Classes = int(classes)
	embBlob := d.blob(maxMatrixLen, "embedding table")
	if d.err == nil {
		s.Emb = &tensor.Matrix{}
		if err := s.Emb.UnmarshalBinary(embBlob); err != nil {
			return nil, fmt.Errorf("snapshot: decoding embedding table: %w", err)
		}
		if s.Classes > 0 {
			raw := d.bytes(4*s.Emb.Rows(), "predictions")
			if d.err == nil {
				s.Preds = make([]int, s.Emb.Rows())
				for v := range s.Preds {
					s.Preds[v] = int(binary.LittleEndian.Uint32(raw[4*v:]))
				}
			}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: decoding: %w", d.err)
	}

	// Checksum: grab the running CRC before consuming the trailer.
	sum := h.Sum32()
	var trailer uint32
	if err := binary.Read(br, binary.LittleEndian, &trailer); err != nil {
		return nil, fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if trailer != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %#x, computed %#x): snapshot is corrupt", trailer, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("snapshot: trailing data after checksum")
		}
		return nil, fmt.Errorf("snapshot: reading trailer: %w", err)
	}

	if err := json.Unmarshal(metaJSON, &s.Meta); err != nil {
		return nil, fmt.Errorf("snapshot: decoding metadata: %w", err)
	}
	// The binary header is authoritative, and the JSON must be exactly what
	// Encode writes for it, so a decoded snapshot re-encodes to its bytes.
	s.Meta.Version = version
	if canon, err := json.Marshal(s.Meta); err != nil || !bytes.Equal(canon, metaJSON) {
		return nil, fmt.Errorf("snapshot: metadata is not in canonical form")
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return s, nil
}

// Read loads and decodes the snapshot file at path.
func Read(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// PeekVersion reads just the snapshot version from the file header, without
// decoding or checksumming the body — the cheap staleness check watchers
// use before a full Read.
func PeekVersion(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr struct {
		Magic, Format uint32
		Version       uint64
	}
	if err := binary.Read(f, binary.LittleEndian, &hdr); err != nil {
		return 0, fmt.Errorf("%s: reading snapshot header: %w", path, err)
	}
	if hdr.Magic != magic {
		return 0, fmt.Errorf("%s: bad magic %#x (not a lumos snapshot)", path, hdr.Magic)
	}
	if hdr.Format != formatVersion {
		return 0, fmt.Errorf("%s: %w", path, formatError(hdr.Format))
	}
	return hdr.Version, nil
}

// PublishObserver, when set, is called after every successful Write with
// the published path, version, encoded size, and the time the encode+
// fsync+rename took. CLIs hook it up once at startup to count and trace
// snapshot publishes; it must be set before any concurrent Write and be
// safe for concurrent calls. Nil (the default) costs nothing.
var PublishObserver func(path string, version uint64, bytes int64, elapsed time.Duration)

// Write publishes the snapshot to path atomically: encode to a temporary
// file in the same directory, fsync, check the close error (a full disk
// must never ship a truncated snapshot), then rename over path. A watcher
// polling path sees either the old snapshot or the complete new one.
func Write(path string, s *Snapshot) (err error) {
	start := time.Now()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if err = s.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	var size int64
	if st, serr := tmp.Stat(); serr == nil {
		size = st.Size()
	}
	if err = tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if PublishObserver != nil {
		PublishObserver(path, s.Meta.Version, size, time.Since(start))
	}
	return nil
}

// PublishNext writes the snapshot to path with the next version: one past
// the version currently published there (1 when the path does not exist or
// holds something unreadable). It returns the published version — this is
// what keeps versions monotonically increasing across a train→publish loop,
// which serving replicas rely on for swap ordering.
func PublishNext(path string, s *Snapshot) (uint64, error) {
	prev, err := PeekVersion(path)
	if err != nil {
		prev = 0
	}
	next := prev + 1
	if next == 0 { // uint64 wrap: malformed header claimed MaxUint64
		return 0, fmt.Errorf("snapshot: version space exhausted at %s", path)
	}
	s.Meta.Version = next
	if err := Write(path, s); err != nil {
		return 0, err
	}
	return next, nil
}

// encoder is a sticky-error little-endian writer.
type encoder struct {
	w   io.Writer
	err error
}

func (e *encoder) u32(v uint32) { e.write(v) }
func (e *encoder) u64(v uint64) { e.write(v) }

func (e *encoder) write(v interface{}) {
	if e.err != nil {
		return
	}
	e.err = binary.Write(e.w, binary.LittleEndian, v)
}

func (e *encoder) blob(b []byte, max int, what string) {
	if e.err == nil && len(b) > max {
		e.err = fmt.Errorf("%s is %d bytes, bound is %d", what, len(b), max)
	}
	e.u32(uint32(len(b)))
	e.bytes(b)
}

func (e *encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

// decoder is a sticky-error little-endian reader with bounds enforcement;
// every read flows through the CRC tee.
type decoder struct {
	r   io.Reader
	err error
}

func (d *decoder) u32() uint32 {
	var v uint32
	d.read(&v)
	return v
}

func (d *decoder) u64() uint64 {
	var v uint64
	d.read(&v)
	return v
}

func (d *decoder) read(v interface{}) {
	if d.err != nil {
		return
	}
	d.err = binary.Read(d.r, binary.LittleEndian, v)
}

// blob reads a length-prefixed byte section of at most max bytes.
func (d *decoder) blob(max int, what string) []byte {
	n := d.u32()
	if d.err == nil && int64(n) > int64(max) {
		d.err = fmt.Errorf("%s claims %d bytes, bound is %d (corrupt length field?)", what, n, max)
	}
	return d.bytes(int(n), what)
}

// bytes reads an n-byte section, growing as data actually arrives so a
// corrupt length never drives an up-front allocation.
func (d *decoder) bytes(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	var buf bytes.Buffer
	if m, err := io.CopyN(&buf, d.r, int64(n)); err != nil {
		d.err = fmt.Errorf("reading %s: got %d of %d bytes: %w", what, m, n, err)
		return nil
	}
	return buf.Bytes()
}
