package geolife

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/geo"
	"repro/internal/trace"
)

// testCfg is a small but density-faithful config: per-user volume
// matches the paper presets (~11.4k traces/user) so sampling ratios
// are representative, with few users for speed.
func testCfg() Config {
	return Config{Users: 6, TotalTraces: 68_000, Seed: 7}
}

func TestGenerateExactCount(t *testing.T) {
	for _, cfg := range []Config{
		{Users: 3, TotalTraces: 5000, Seed: 1},
		{Users: 10, TotalTraces: 12345, Seed: 2},
		{Users: 1, TotalTraces: 100, Seed: 3},
	} {
		ds := Generate(cfg)
		if got := ds.NumTraces(); got != cfg.TotalTraces {
			t.Errorf("users=%d: NumTraces = %d, want %d", cfg.Users, got, cfg.TotalTraces)
		}
		if got := len(ds.Trails); got != cfg.Users {
			t.Errorf("trails = %d, want %d", got, cfg.Users)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Users: 3, TotalTraces: 3000, Seed: 42}
	a := Generate(cfg)
	b := Generate(cfg)
	ta, tb := a.AllTraces(), b.AllTraces()
	if len(ta) != len(tb) {
		t.Fatal("lengths differ")
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("trace %d differs: %+v vs %+v", i, ta[i], tb[i])
		}
	}
	c := Generate(Config{Users: 3, TotalTraces: 3000, Seed: 43})
	if c.AllTraces()[0] == ta[0] {
		t.Fatal("different seeds produced identical first trace")
	}
}

func TestTracesOrderedAndInBounds(t *testing.T) {
	ds := Generate(Config{Users: 4, TotalTraces: 8000, Seed: 5})
	// Generated area may exceed the nominal box slightly (POIs are
	// offset from in-box homes); allow a small margin.
	margin := Beijing
	margin.Min.Lat -= 0.1
	margin.Min.Lon -= 0.1
	margin.Max.Lat += 0.1
	margin.Max.Lon += 0.1
	for _, tr := range ds.Trails {
		for i, tc := range tr.Traces {
			if tc.User != tr.User {
				t.Fatalf("trace user %q in trail %q", tc.User, tr.User)
			}
			if !margin.Contains(tc.Point) {
				t.Fatalf("trace outside Beijing box: %v", tc.Point)
			}
			if i > 0 && tc.Time.Before(tr.Traces[i-1].Time) {
				t.Fatalf("user %s: traces not chronological at %d", tr.User, i)
			}
		}
	}
}

func TestSamplingDensityMatchesGeoLife(t *testing.T) {
	// Consecutive traces within a session must be 3-6 s apart (the
	// paper: "a mobility trace is recorded every 1 to 5 seconds").
	ds := Generate(Config{Users: 2, TotalTraces: 5000, Seed: 6})
	gaps := map[time.Duration]int{}
	for _, tr := range ds.Trails {
		for i := 1; i < len(tr.Traces); i++ {
			d := tr.Traces[i].Time.Sub(tr.Traces[i-1].Time)
			if d <= 10*time.Second {
				gaps[d]++
			}
		}
	}
	for d := range gaps {
		if d < 3*time.Second || d > 6*time.Second {
			t.Fatalf("intra-session gap %v outside [3s,6s]", d)
		}
	}
	if len(gaps) < 3 {
		t.Fatalf("expected varied gaps, got %v", gaps)
	}
}

// countWindows simulates down-sampling: distinct (user, window)
// pairs, the number of traces surviving sampling at the given window.
func countWindows(ds *trace.Dataset, window time.Duration) int {
	n := 0
	for _, tr := range ds.Trails {
		seen := map[int64]bool{}
		for _, tc := range tr.Traces {
			w := tc.Time.Unix() / int64(window.Seconds())
			if !seen[w] {
				seen[w] = true
				n++
			}
		}
	}
	return n
}

func TestCollapseRatiosMatchTableI(t *testing.T) {
	// Table I: 2,033,686 -> 155,260 (13.1x) -> 41,263 (49.3x) ->
	// 23,596 (86.2x). The generator must land near these shapes.
	ds := Generate(testCfg())
	total := ds.NumTraces()
	r1 := float64(total) / float64(countWindows(ds, time.Minute))
	r5 := float64(total) / float64(countWindows(ds, 5*time.Minute))
	r10 := float64(total) / float64(countWindows(ds, 10*time.Minute))
	t.Logf("collapse ratios: 1min=%.1f (paper 13.1) 5min=%.1f (paper 49.3) 10min=%.1f (paper 86.2)", r1, r5, r10)
	if r1 < 10 || r1 > 17 {
		t.Errorf("1-min collapse ratio %.1f outside [10,17]", r1)
	}
	if r5 < 35 || r5 > 65 {
		t.Errorf("5-min collapse ratio %.1f outside [35,65]", r5)
	}
	if r10 < 60 || r10 > 115 {
		t.Errorf("10-min collapse ratio %.1f outside [60,115]", r10)
	}
	if !(r1 < r5 && r5 < r10) {
		t.Errorf("ratios must increase with window: %v %v %v", r1, r5, r10)
	}
}

func TestStationaryFractionSupportsTableIV(t *testing.T) {
	// After 1-min sampling the paper keeps 86,416/155,260 = 55.7% of
	// traces as stationary. Estimate the stationary share of sampled
	// traces (centered-difference speed < 2 km/h over 1-min samples).
	ds := Generate(testCfg())
	kept, total := 0, 0
	for _, tr := range ds.Trails {
		// 1-min down-sample: first trace of each window.
		var sampled []trace.Trace
		seen := map[int64]bool{}
		for _, tc := range tr.Traces {
			w := tc.Time.Unix() / 60
			if !seen[w] {
				seen[w] = true
				sampled = append(sampled, tc)
			}
		}
		for i := 1; i+1 < len(sampled); i++ {
			dt := sampled[i+1].Time.Sub(sampled[i-1].Time).Seconds()
			v := geo.SpeedKmh(sampled[i-1].Point, sampled[i+1].Point, dt)
			total++
			if v <= 2.0 {
				kept++
			}
		}
	}
	frac := float64(kept) / float64(total)
	t.Logf("stationary fraction after 1-min sampling: %.1f%% (paper 55.7%%)", frac*100)
	if frac < 0.40 || frac > 0.75 {
		t.Errorf("stationary fraction %.2f outside [0.40,0.75]", frac)
	}
}

func TestDwellsClusterAtTruePOIs(t *testing.T) {
	// Most stationary traces must lie near a true POI, so clustering
	// can recover the user model (the privacy attack ground truth).
	ds, truth := GenerateWithTruth(Config{Users: 3, TotalTraces: 9000, Seed: 8})
	for _, tr := range ds.Trails {
		pois := truth.POIs(tr.User)
		near := 0
		for _, tc := range tr.Traces {
			for _, p := range pois {
				if geo.Haversine(tc.Point, p) < 30 {
					near++
					break
				}
			}
		}
		frac := float64(near) / float64(len(tr.Traces))
		if frac < 0.3 {
			t.Errorf("user %s: only %.0f%% of traces near a POI", tr.User, frac*100)
		}
	}
}

func TestGroundTruthGeometry(t *testing.T) {
	_, truth := GenerateWithTruth(Config{Users: 5, TotalTraces: 500, Seed: 9})
	if len(truth.Homes) != 5 || len(truth.Works) != 5 {
		t.Fatalf("truth sizes: %d homes, %d works", len(truth.Homes), len(truth.Works))
	}
	for u, home := range truth.Homes {
		work := truth.Works[u]
		d := geo.Haversine(home, work)
		if d < 1400 || d > 4600 {
			t.Errorf("user %s: home-work distance %.0fm outside [1.4km,4.6km]", u, d)
		}
		if n := len(truth.Leisure[u]); n < 2 || n > 4 {
			t.Errorf("user %s: %d leisure POIs", u, n)
		}
		if got := len(truth.POIs(u)); got != 2+len(truth.Leisure[u]) {
			t.Errorf("POIs(%s) = %d entries", u, got)
		}
	}
}

func TestWriteReadRecordsRoundTrip(t *testing.T) {
	c, _ := cluster.NewUniform(4, 2, 2)
	fs, _ := dfs.New(c, dfs.Config{ChunkSize: 1 << 16, Seed: 1})
	ds := Generate(Config{Users: 3, TotalTraces: 2000, Seed: 10})
	if err := WriteRecords(fs, "geolife", ds); err != nil {
		t.Fatal(err)
	}
	if got := len(fs.List("geolife")); got != 3 {
		t.Fatalf("files = %d, want 3 (one per user)", got)
	}
	back, err := ReadRecords(fs, "geolife")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTraces() != ds.NumTraces() {
		t.Fatalf("NumTraces = %d, want %d", back.NumTraces(), ds.NumTraces())
	}
	// Spot-check first trail contents (times truncated to seconds both ways).
	a, b := ds.Trails[0], back.Trails[0]
	if a.User != b.User || len(a.Traces) != len(b.Traces) {
		t.Fatalf("trail mismatch: %s/%d vs %s/%d", a.User, len(a.Traces), b.User, len(b.Traces))
	}
	for i := range a.Traces {
		if math.Abs(a.Traces[i].Point.Lat-b.Traces[i].Point.Lat) > 1e-6 ||
			!a.Traces[i].Time.Equal(b.Traces[i].Time) {
			t.Fatalf("trace %d differs", i)
		}
	}
}

// TestScanTracesLineEndings reads one record file with LF, CRLF, blank
// lines and no final newline: every form yields the same traces, as
// the engine's line reader would.
func TestScanTracesLineEndings(t *testing.T) {
	ds := Generate(Config{Users: 1, TotalTraces: 50, Seed: 4})
	var lf strings.Builder
	for _, tr := range ds.Trails[0].Traces {
		lf.WriteString(tr.Record() + "\n")
	}
	collect := func(data string) []trace.Trace {
		t.Helper()
		var out []trace.Trace
		if err := ScanTraces([]byte(data), func(tr trace.Trace) error {
			out = append(out, tr)
			return nil
		}); err != nil {
			t.Fatalf("ScanTraces: %v", err)
		}
		return out
	}
	want := collect(lf.String())
	if len(want) != 50 {
		t.Fatalf("LF file: %d traces, want 50", len(want))
	}
	crlf := strings.ReplaceAll(lf.String(), "\n", "\r\n")
	for name, data := range map[string]string{
		"CRLF":             crlf,
		"CRLF+blank lines": "\r\n" + strings.ReplaceAll(crlf, "\r\n", "\r\n\n"),
		"no final newline": strings.TrimSuffix(lf.String(), "\n"),
	} {
		got := collect(data)
		if len(got) != len(want) {
			t.Fatalf("%s: %d traces, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: trace %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestReadRecordsEmptyDir(t *testing.T) {
	c, _ := cluster.NewUniform(2, 1, 1)
	fs, _ := dfs.New(c, dfs.Config{Seed: 1})
	if _, err := ReadRecords(fs, "missing"); err == nil {
		t.Fatal("want error for empty dir")
	}
}

func TestParseRecordValue(t *testing.T) {
	tr := trace.Trace{User: "007", Point: geo.Point{Lat: 39.9, Lon: 116.4}, AltitudeFeet: 200, Time: time.Unix(1_200_000_000, 0).UTC()}
	// Bare record.
	got, err := ParseRecordValue(tr.Record())
	if err != nil || got != tr {
		t.Fatalf("bare: %+v, %v", got, err)
	}
	// With part-file key prefix.
	got, err = ParseRecordValue("12345\t" + tr.Record())
	if err != nil || got != tr {
		t.Fatalf("prefixed: %+v, %v", got, err)
	}
	if _, err := ParseRecordValue("nofields"); err == nil {
		t.Fatal("want error for short record")
	}
}

func TestScaledPreset(t *testing.T) {
	cfg := Scaled(1, 100)
	if cfg.Users != 1 || cfg.TotalTraces != 20336 {
		t.Fatalf("Scaled(100) = %+v", cfg)
	}
	cfg = Scaled(1, 2)
	if cfg.Users != 89 || cfg.TotalTraces != 1_016_843 {
		t.Fatalf("Scaled(2) = %+v", cfg)
	}
	if Scaled(1, 0).Users != 178 {
		t.Fatal("factor<1 should clamp to 1")
	}
}

func TestPaperPresets(t *testing.T) {
	if c := Paper178(1); c.Users != 178 || c.TotalTraces != 2_033_686 {
		t.Fatalf("Paper178 = %+v", c)
	}
	if c := Paper90(1); c.Users != 90 || c.TotalTraces != 1_050_000 {
		t.Fatalf("Paper90 = %+v", c)
	}
}
