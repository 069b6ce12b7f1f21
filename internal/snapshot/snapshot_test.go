package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/tensor"
)

// trainedSystem briefly trains a small system through the public core API.
func trainedSystem(t *testing.T, task core.Task, seed int64) (*core.System, *graph.NodeSplit, *graph.EdgeSplit) {
	t.Helper()
	sys, split, es, _ := newSystem(t, task, seed)
	if task == core.Supervised {
		if _, err := sys.TrainSupervised(split); err != nil {
			t.Fatal(err)
		}
	} else if _, err := sys.TrainUnsupervised(es); err != nil {
		t.Fatal(err)
	}
	return sys, split, es
}

// newSystem builds an untrained small GCN system and the objective for its
// task.
func newSystem(t *testing.T, task core.Task, seed int64) (*core.System, *graph.NodeSplit, *graph.EdgeSplit, core.Objective) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{
		Name: "snaptest", N: 40, M: 140, Classes: 3, FeatureDim: 12,
		Homophily: 0.85, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Task: task, Epochs: 2, MCMCIterations: 10, Shards: 5, Workers: 2, Seed: seed,
	}
	rng := rand.New(rand.NewSource(seed))
	if task == core.Supervised {
		split, err := graph.SplitNodes(g, 0.5, 0.25, rng)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(g, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys, split, nil, core.NewSupervisedObjective(split)
	}
	es, err := graph.SplitEdges(g, 0.8, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(es.TrainGraph, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, nil, es, core.NewUnsupervisedObjective(es)
}

func encodeOf(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes the CRC trailer of an edited snapshot, so the edit
// reaches the body checks instead of failing the checksum.
func reseal(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	out := append([]byte(nil), b[:len(b)-4]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// overflowMatrix replaces the snapshot's last tensor.Matrix blob with a
// 12-byte header claiming 2³¹×2³⁰ float64s, whose 8·rows·cols wraps to 0,
// and reseals the CRC.
func overflowMatrix(t testing.TB, good []byte) []byte {
	t.Helper()
	mtx := []byte("XTML") // the matrix magic "LMTX", little-endian
	i := bytes.LastIndex(good, mtx)
	if i < 4 || i+12 > len(good) {
		t.Fatal("no matrix blob in the snapshot")
	}
	rows := int(binary.LittleEndian.Uint32(good[i+4:]))
	cols := int(binary.LittleEndian.Uint32(good[i+8:]))
	n := 12 + 8*rows*cols
	if int(binary.LittleEndian.Uint32(good[i-4:])) != n || i+n > len(good)-4 {
		t.Fatal("matrix magic is not at the start of a length-prefixed blob")
	}
	bad := binary.LittleEndian.AppendUint32(append([]byte(nil), good[:i-4]...), 12)
	bad = append(bad, mtx...)
	bad = binary.LittleEndian.AppendUint32(bad, 1<<31)
	bad = binary.LittleEndian.AppendUint32(bad, 1<<30)
	bad = append(bad, good[i+n:]...)
	return reseal(bad)
}

// TestSnapshotRoundTrip: capture → encode → decode must reproduce the
// metadata and the training system's own evaluation outputs bit for bit,
// for both tasks, and re-encode to the same bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	t.Run("supervised", func(t *testing.T) {
		sys, split, _ := trainedSystem(t, core.Supervised, 41)
		meta := Meta{
			Version: 7, Dataset: "snaptest", Seed: 41, Round: 2,
			Metric: 0.5, MetricName: "accuracy", CreatedUnix: 1700000000,
		}
		snap, err := Capture(sys, meta)
		if err != nil {
			t.Fatal(err)
		}
		raw := encodeOf(t, snap)
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		want := meta
		want.Task, want.Backbone = "supervised", "GCN"
		if got.Meta != want {
			t.Fatalf("metadata round trip: got %+v, want %+v", got.Meta, want)
		}
		if got.Classes != sys.Head.Out {
			t.Fatalf("classes round trip: got %d, want %d", got.Classes, sys.Head.Out)
		}
		if !reflect.DeepEqual(sys.Embeddings().Data(), got.Emb.Data()) {
			t.Fatal("decoded embeddings differ from training system")
		}
		wp, err := sys.Predictions()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wp, got.Preds) {
			t.Fatal("decoded predictions differ from training system")
		}
		acc, err := sys.EvaluateAccuracy(split.IsTest)
		if err != nil {
			t.Fatal(err)
		}
		correct, total := 0, 0
		for v, mask := range split.IsTest {
			if !mask {
				continue
			}
			total++
			if got.Preds[v] == sys.G.Labels[v] {
				correct++
			}
		}
		if served := float64(correct) / float64(total); served != acc {
			t.Fatalf("accuracy from decoded snapshot %v != EvaluateAccuracy %v", served, acc)
		}
		if !bytes.Equal(raw, encodeOf(t, got)) {
			t.Fatal("decoded snapshot re-encodes to different bytes")
		}
	})

	t.Run("unsupervised", func(t *testing.T) {
		sys, _, es := trainedSystem(t, core.Unsupervised, 43)
		snap, err := Capture(sys, Meta{Version: 1})
		if err != nil {
			t.Fatal(err)
		}
		if snap.Preds != nil || snap.Classes != 0 {
			t.Fatalf("unsupervised capture has a head (%d classes)", snap.Classes)
		}
		raw := encodeOf(t, snap)
		got, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got.Preds != nil || got.Classes != 0 {
			t.Fatalf("headless snapshot decoded with %d classes", got.Classes)
		}
		pairs := append(append([][2]int(nil), es.Test...), es.TestNeg...)
		ws, err := sys.PairScores(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if gs := tensor.RowDot(got.Emb, p[0], got.Emb, p[1]); math.Float64bits(gs) != math.Float64bits(ws[i]) {
				t.Fatalf("pair %v: decoded score %v, training system %v", p, gs, ws[i])
			}
		}
		if !bytes.Equal(raw, encodeOf(t, got)) {
			t.Fatal("decoded snapshot re-encodes to different bytes")
		}
	})
}

// TestSnapshotCaptureIsFrozen: training after Capture must not change what
// the snapshot decodes to.
func TestSnapshotCaptureIsFrozen(t *testing.T) {
	sys, split, _ := trainedSystem(t, core.Supervised, 47)
	snap, err := Capture(sys, Meta{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := encodeOf(t, snap)
	if _, err := sys.TrainSupervised(split); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, encodeOf(t, snap)) {
		t.Fatal("continued training mutated a captured snapshot")
	}
}

// TestCaptureLeavesTrainingUnchanged: Capture runs an evaluation forward on
// the live trainer. Capturing between every Step, and between every
// StepRound of a run with partial participation, delayed gradients and
// evaluations, must leave the loss trace and the final weights equal, bit
// for bit, to an uncaptured run's.
func TestCaptureLeavesTrainingUnchanged(t *testing.T) {
	const steps = 6
	run := func(t *testing.T, task core.Task, rounds, capture bool) (losses, weights []float64) {
		sys, _, _, obj := newSystem(t, task, 79)
		sess, err := sys.NewSession(obj)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for r := 0; r < steps; r++ {
			var loss float64
			if rounds {
				active, delays := make([]bool, sys.G.N), make([]int, sys.G.N)
				for v := range active {
					active[v], delays[v] = rng.Float64() < 0.6, rng.Intn(3)
				}
				out, err := sess.StepRound(core.RoundPlan{Active: active, Delays: delays, TTL: 2, Evaluate: r%2 == 1})
				if err != nil {
					t.Fatal(err)
				}
				loss = out.Loss
			} else if loss, err = sess.Step(); err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
			if capture {
				if _, err := Capture(sys, Meta{Round: r}); err != nil {
					t.Fatal(err)
				}
			}
		}
		sess.FinishRounds()
		for _, p := range sys.Params() {
			weights = append(weights, p.V.Data.Data()...)
		}
		return losses, weights
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name   string
		task   core.Task
		rounds bool
	}{
		{"step-supervised", core.Supervised, false},
		{"step-unsupervised", core.Unsupervised, false},
		{"round-supervised", core.Supervised, true},
		{"round-unsupervised", core.Unsupervised, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantLoss, wantW := run(t, tc.task, tc.rounds, false)
			gotLoss, gotW := run(t, tc.task, tc.rounds, true)
			if !same(wantLoss, gotLoss) {
				t.Fatalf("loss trace with captures %v, without %v", gotLoss, wantLoss)
			}
			if !same(wantW, gotW) {
				t.Fatal("final weights with captures differ from an uncaptured run")
			}
		})
	}
}

// TestSnapshotCorruption flips every bit of the encoded snapshot in turn;
// every flip must surface as a decode error (CRC mismatch or a bounds
// check), never a silently-wrong table or a huge allocation.
func TestSnapshotCorruption(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 53)
	snap, err := Capture(sys, Meta{Version: 3})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeOf(t, snap)
	if _, err := Decode(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact snapshot failed to decode: %v", err)
	}
	corrupt := append([]byte(nil), good...)
	for off := range corrupt {
		for bit := 0; bit < 8; bit++ {
			corrupt[off] ^= 1 << bit
			if _, err := Decode(bytes.NewReader(corrupt)); err == nil {
				t.Fatalf("bit flip at offset %d (bit %d) decoded without error", off, bit)
			}
			corrupt[off] ^= 1 << bit
		}
	}
}

// TestSnapshotTruncation: every truncated prefix must fail cleanly.
func TestSnapshotTruncation(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 59)
	snap, err := Capture(sys, Meta{Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeOf(t, snap)
	for n := 0; n < len(good); n++ {
		if _, err := Decode(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) decoded without error", n, len(good))
		}
	}
}

// TestSnapshotMatrixOverflowHeader: an embedding blob whose header claims
// 2³¹×2³⁰ float64s (8·rows·cols wraps to 0, so 12 bytes looked complete)
// under a valid CRC must fail Decode, not panic in makeslice.
func TestSnapshotMatrixOverflowHeader(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 73)
	snap, err := Capture(sys, Meta{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(overflowMatrix(t, encodeOf(t, snap)))); err == nil {
		t.Fatal("overflowing matrix header decoded without error")
	}
}

// TestSnapshotResealedTablesRejected: edits that keep the CRC valid must
// still fail the table checks.
func TestSnapshotResealedTablesRejected(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 75)
	snap, err := Capture(sys, Meta{Version: 4, Dataset: "snaptest"})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeOf(t, snap)
	metaLen := int(binary.LittleEndian.Uint32(good[16:]))
	classesAt := 20 + metaLen
	predsAt := len(good) - 4 - 4*len(snap.Preds)

	for _, tc := range []struct {
		name, want string
		edit       func(b []byte) []byte
	}{
		{"pred out of range", "predicted class", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[predsAt:], uint32(snap.Classes))
			return b
		}},
		{"one class", "classes", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[classesAt:], 1)
			return b
		}},
		{"class count past bound", "class count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[classesAt:], maxClasses+1)
			return b
		}},
		{"header version differs from metadata", "canonical", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 5)
			return b
		}},
		{"non-canonical metadata", "canonical", func(b []byte) []byte {
			i := bytes.Index(b, []byte(`"task"`))
			out := append(append(append([]byte(nil), b[:i]...), ' '), b[i:]...)
			binary.LittleEndian.PutUint32(out[16:], uint32(metaLen+1))
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := reseal(tc.edit(append([]byte(nil), good...)))
			_, err := Decode(bytes.NewReader(bad))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error mentioning %q, got %v", tc.want, err)
			}
		})
	}
}

func TestSnapshotBadMagicAndFormat(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 61)
	snap, err := Capture(sys, Meta{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeOf(t, snap)

	badMagic := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badMagic[0:], 0xdeadbeef)
	if _, err := Decode(bytes.NewReader(badMagic)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}

	badFormat := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badFormat[4:], formatVersion+1)
	if _, err := Decode(bytes.NewReader(badFormat)); err == nil || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("want format-version error, got %v", err)
	}

	formatOne := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(formatOne[4:], 1)
	if _, err := Decode(bytes.NewReader(formatOne)); err == nil || !strings.Contains(err.Error(), "republish") {
		t.Fatalf("want a republish error for format 1, got %v", err)
	}

	if _, err := Decode(bytes.NewReader(append(good, 0x00))); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-data error, got %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if err := os.WriteFile(path, badMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekVersion(path); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("PeekVersion on bad magic: got %v", err)
	}
	if err := os.WriteFile(path, formatOne, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekVersion(path); err == nil || !strings.Contains(err.Error(), "republish") {
		t.Fatalf("PeekVersion on format 1: got %v", err)
	}
}

// TestSnapshotPublish exercises the Write/PublishNext/PeekVersion loop:
// atomic publish, monotonically increasing versions, recovery from an
// unreadable predecessor.
func TestSnapshotPublish(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 67)
	snap, err := Capture(sys, Meta{Dataset: "snaptest"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")

	v, err := PublishNext(path, snap)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first publish got version %d, want 1", v)
	}
	if got, err := PeekVersion(path); err != nil || got != 1 {
		t.Fatalf("PeekVersion = %d, %v; want 1", got, err)
	}

	v, err = PublishNext(path, snap)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("second publish got version %d, want 2", v)
	}
	loaded, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta.Version != 2 || loaded.Meta.Dataset != "snaptest" {
		t.Fatalf("read back %+v", loaded.Meta)
	}

	// No temp files may be left behind by the atomic rename.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.snap" {
		t.Fatalf("publish left extra files: %v", entries)
	}

	// An unreadable predecessor restarts the version sequence rather than
	// blocking publishes.
	garbled := filepath.Join(dir, "garbled.snap")
	if err := os.WriteFile(garbled, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err = PublishNext(garbled, snap); err != nil || v != 1 {
		t.Fatalf("publish over garbage: got %d, %v; want 1", v, err)
	}
}

// TestSnapshotEncodeRejectsIncomplete: encoding must validate up front.
func TestSnapshotEncodeRejectsIncomplete(t *testing.T) {
	sys, _, _ := trainedSystem(t, core.Supervised, 71)
	snap, err := Capture(sys, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tc := range []struct {
		name string
		mut  func(s *Snapshot)
	}{
		{"no embedding table", func(s *Snapshot) { s.Emb = nil }},
		{"empty embedding table", func(s *Snapshot) { s.Emb = tensor.New(0, 4) }},
		{"classes but no predictions", func(s *Snapshot) { s.Preds = nil }},
		{"predictions but no classes", func(s *Snapshot) { s.Classes = 0 }},
		{"one class", func(s *Snapshot) { s.Classes = 1 }},
		{"too few predictions", func(s *Snapshot) { s.Preds = s.Preds[:1] }},
		{"prediction out of range", func(s *Snapshot) {
			s.Preds = append([]int(nil), s.Preds...)
			s.Preds[0] = s.Classes
		}},
	} {
		broken := *snap
		tc.mut(&broken)
		if err := broken.Encode(&buf); err == nil {
			t.Errorf("%s: encoded", tc.name)
		}
	}
}

// FuzzDecode: any input either fails to decode or decodes to a snapshot
// that re-encodes to exactly the same bytes; Decode never panics. Each
// input is also tried with its CRC trailer recomputed, so mutations reach
// the body checks instead of stopping at the checksum. The committed seed
// corpus (testdata/fuzz/FuzzDecode) holds tiny supervised and link tables,
// truncated and bit-flipped copies, resealed body edits, a format-1 header
// and the matrix header whose 8·rows·cols wraps.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			s, err := Decode(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := s.Encode(&out); err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("decoded snapshot re-encodes to %d different bytes from %d", out.Len(), len(in))
			}
		}
	})
}
