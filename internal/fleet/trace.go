package fleet

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"lumos/internal/rng"
)

// Trace is a device-population trace loaded from disk — the FedScale-style
// ingestion layer: one record per traced device, carrying its capacity
// multipliers, power draw, and (optionally) a periodic availability cycle.
// A Trace implements Fleet: when the simulated fleet is larger than the
// trace, devices are assigned records by deterministic seeded sampling, so
// a small measured trace can drive an arbitrarily large fleet.
//
// On-disk schema (version 1): CSV, whatever the file's extension.
// '#'-prefixed comment lines, then a header row naming the columns, then one
// row per device:
//
//	device,compute,bandwidth,latency,power,period,on_rounds,phase
//	0,1.000,1.000,1.000,1.000,0,0,0
//	1,2.500,0.632,1.581,0.800,8,6,3
//
// compute/bandwidth/latency/power are multipliers over the cost model's
// nominal device (see Profile); period/on_rounds/phase describe the
// availability cycle (all zero = always online). The device column is
// ordinal only — rows load in file order.
type Trace struct {
	// Name labels the trace (LoadTrace: the file's base name without its
	// extension).
	Name string
	// Devices holds one validated profile per traced device, in file order.
	Devices []Profile
}

// traceColumns is the canonical CSV header, and the order values are
// written in.
var traceColumns = []string{"device", "compute", "bandwidth", "latency", "power", "period", "on_rounds", "phase"}

// LoadTrace reads a CSV fleet trace from path. Every record is validated
// on load, so a Trace in memory is always usable.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: open trace: %w", err)
	}
	defer f.Close()
	tr, err := ReadTraceCSV(f)
	if err != nil {
		return nil, fmt.Errorf("fleet: trace %s: %w", path, err)
	}
	tr.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return tr, nil
}

// ReadTraceCSV parses the CSV trace schema.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	// csv.Reader's Comment field skips '#' lines wherever they appear, so
	// the documented "comments, then header, then rows" layout is a
	// convention, not a requirement.
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty trace file")
	}
	header := rows[0]
	if len(header) != len(traceColumns) {
		return nil, fmt.Errorf("header has %d columns, want %d (%s)", len(header), len(traceColumns), strings.Join(traceColumns, ","))
	}
	for i, c := range header {
		if !strings.EqualFold(strings.TrimSpace(c), traceColumns[i]) {
			return nil, fmt.Errorf("column %d is %q, want %q", i, c, traceColumns[i])
		}
	}
	tr := &Trace{}
	for i, row := range rows[1:] {
		p, err := parseTraceRow(row)
		if err != nil {
			return nil, fmt.Errorf("device row %d: %w", i, err)
		}
		tr.Devices = append(tr.Devices, p)
	}
	return tr, tr.validate()
}

func parseTraceRow(row []string) (Profile, error) {
	if len(row) != len(traceColumns) {
		return Profile{}, fmt.Errorf("%d fields, want %d", len(row), len(traceColumns))
	}
	fs := make([]float64, len(traceColumns))
	for i := 1; i < len(traceColumns); i++ { // column 0 (device id) is ordinal
		v, err := strconv.ParseFloat(strings.TrimSpace(row[i]), 64)
		if err != nil {
			return Profile{}, fmt.Errorf("%s: %w", traceColumns[i], err)
		}
		fs[i] = v
	}
	for _, i := range []int{5, 6, 7} { // period, on_rounds, phase are integral
		if fs[i] != math.Trunc(fs[i]) {
			return Profile{}, fmt.Errorf("%s must be an integer, got %v", traceColumns[i], fs[i])
		}
		// Bounded before the conversion to int, whose result is
		// implementation-defined for a value outside int's range.
		if !(math.Abs(fs[i]) <= MaxPeriod) {
			return Profile{}, fmt.Errorf("%s %v outside [-%d,%d]", traceColumns[i], fs[i], MaxPeriod, MaxPeriod)
		}
	}
	return Profile{
		Compute: fs[1], Bandwidth: fs[2], Latency: fs[3], Power: fs[4],
		Period: int(fs[5]), OnRounds: int(fs[6]), Phase: int(fs[7]),
	}, nil
}

func (t *Trace) validate() error {
	if len(t.Devices) == 0 {
		return fmt.Errorf("trace describes no devices")
	}
	for i, p := range t.Devices {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
	}
	return nil
}

// WriteCSV writes the trace in the CSV schema, with a comment header
// documenting the columns.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Lumos fleet trace v1 (FedScale-style): one device per row.\n")
	fmt.Fprintf(bw, "# compute/bandwidth/latency/power are multipliers over the nominal device;\n")
	fmt.Fprintf(bw, "# period/on_rounds/phase give a periodic availability cycle (0,0,0 = always on).\n")
	cw := csv.NewWriter(bw)
	if err := cw.Write(traceColumns); err != nil {
		return err
	}
	for i, p := range t.Devices {
		row := []string{
			strconv.Itoa(i),
			formatMult(p.Compute), formatMult(p.Bandwidth), formatMult(p.Latency), formatMult(p.Power),
			strconv.Itoa(p.Period), strconv.Itoa(p.OnRounds), strconv.Itoa(p.Phase),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// formatMult renders a multiplier losslessly (round-trips through
// ParseFloat), so write→load→write is stable.
func formatMult(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Save writes the trace to path in the CSV schema, whatever the extension.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fleet: save trace: %w", err)
	}
	err = t.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// String implements Fleet.
func (t *Trace) String() string { return t.Name }

// Profiles implements Fleet: it maps n simulated devices onto the trace's
// records deterministically.
//
//   - n == len(Devices): the trace is used verbatim, in file order (the
//     round-trip identity datagen-produced traces rely on).
//   - n < len(Devices): a seeded permutation selects n records; the chosen
//     records keep their relative file order.
//   - n > len(Devices): devices cycle through one seeded permutation of the
//     records (device d gets record perm[d mod len]), so every record is
//     used ⌊n/len⌋ or ⌈n/len⌉ times and the fleet's mix matches the trace's.
func (t *Trace) Profiles(n int, seed int64) ([]Profile, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: fleet of %d devices", n)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	m := len(t.Devices)
	out := make([]Profile, n)
	switch {
	case n == m:
		copy(out, t.Devices)
	case n < m:
		rng := rng.New(seed)
		perm := rng.Perm(m)[:n]
		// Keep the chosen records in ascending file order so truncating a
		// trace preserves its shape, not the permutation's.
		idx := append([]int(nil), perm...)
		sort.Ints(idx)
		for d, i := range idx {
			out[d] = t.Devices[i]
		}
	default:
		rng := rng.New(seed)
		perm := rng.Perm(m)
		for d := range out {
			out[d] = t.Devices[perm[d%m]]
		}
	}
	return out, nil
}

// SampleTrace synthesizes a small but representative fleet trace — the
// payload of `lumos-datagen -traces`, used by tests and the smoke suite so
// trace loading never depends on external downloads. The population mixes
// three measured-fleet regimes, deterministically from the seed:
//
//   - ~50% mid-range phones: compute near nominal, nominal network;
//   - ~25% flagship devices: fast (compute < 1) but power-hungry;
//   - ~25% constrained devices: slow, bandwidth-starved, and on a diurnal
//     availability cycle (period 8–12 rounds, ~2/3 duty, random phase).
func SampleTrace(devices int, seed int64) (*Trace, error) {
	if devices <= 0 {
		return nil, fmt.Errorf("fleet: sample trace of %d devices", devices)
	}
	rng := rng.New(seed)
	tr := &Trace{Name: fmt.Sprintf("sample-%d", devices)}
	for d := 0; d < devices; d++ {
		var p Profile
		switch u := rng.Float64(); {
		case u < 0.5: // mid-range
			p = Profile{
				Compute:   round3(0.8 + 0.6*rng.Float64()),
				Bandwidth: round3(0.8 + 0.4*rng.Float64()),
				Latency:   round3(0.9 + 0.3*rng.Float64()),
				Power:     round3(0.9 + 0.2*rng.Float64()),
			}
		case u < 0.75: // flagship: fast, power-hungry
			p = Profile{
				Compute:   round3(0.4 + 0.3*rng.Float64()),
				Bandwidth: round3(1.2 + 0.8*rng.Float64()),
				Latency:   round3(0.7 + 0.2*rng.Float64()),
				Power:     round3(1.4 + 0.6*rng.Float64()),
			}
		default: // constrained + diurnal availability
			period := 8 + rng.Intn(5)
			p = Profile{
				Compute:   round3(1.8 + 1.4*rng.Float64()),
				Bandwidth: round3(0.3 + 0.4*rng.Float64()),
				Latency:   round3(1.2 + 0.8*rng.Float64()),
				Power:     round3(0.6 + 0.3*rng.Float64()),
				Period:    period,
				OnRounds:  1 + (2*period)/3,
				Phase:     rng.Intn(period),
			}
		}
		tr.Devices = append(tr.Devices, p)
	}
	return tr, tr.validate()
}

// round3 keeps sampled multipliers at 3 decimals so CSV files stay tidy and
// round-trip exactly.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
