package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

// parseRecordSplit is the strings.Split form of ParseRecord, kept as
// the reference FuzzParseRecord checks the in-place parser against.
func parseRecordSplit(rec string) (Trace, error) {
	user, rest, ok := strings.Cut(rec, "\t")
	if !ok {
		return Trace{}, fmt.Errorf("trace: record missing tab: %q", rec)
	}
	fields := strings.Split(rest, ",")
	if len(fields) != 4 {
		return Trace{}, fmt.Errorf("trace: record has %d value fields, want 4: %q", len(fields), rec)
	}
	lat, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Trace{}, fmt.Errorf("trace: bad latitude in record %q: %v", rec, err)
	}
	lon, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Trace{}, fmt.Errorf("trace: bad longitude in record %q: %v", rec, err)
	}
	alt, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Trace{}, fmt.Errorf("trace: bad altitude in record %q: %v", rec, err)
	}
	unix, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return Trace{}, fmt.Errorf("trace: bad unix time in record %q: %v", rec, err)
	}
	return Trace{
		User:         user,
		Point:        geo.Point{Lat: lat, Lon: lon},
		AltitudeFeet: alt,
		Time:         time.Unix(unix, 0).UTC(),
	}, nil
}

// sameTrace compares traces field by field, floats by their bits so a
// parsed NaN equals itself.
func sameTrace(a, b Trace) bool {
	return a.User == b.User &&
		math.Float64bits(a.Point.Lat) == math.Float64bits(b.Point.Lat) &&
		math.Float64bits(a.Point.Lon) == math.Float64bits(b.Point.Lon) &&
		math.Float64bits(a.AltitudeFeet) == math.Float64bits(b.AltitudeFeet) &&
		a.Time == b.Time
}

// FuzzParseRecord checks the in-place parser against the strings.Split
// reference: the same trace, or the same error text.
func FuzzParseRecord(f *testing.F) {
	for _, seed := range []string{
		"153\t39.984702,116.318417,492,1224813000",
		"u\t-90,180,-777,-1",
		"u\t1,2,3",
		"u\t1,2,3,4,5",
		"u\t",
		"u\t1,2,3,4\r",
		"u\t,,,",
		"u\tNaN,Inf,1e400,9223372036854775808",
		"u\tv\t1,2,3,4",
		"no-tab-here",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rec string) {
		got, gotErr := ParseRecord(rec)
		want, wantErr := parseRecordSplit(rec)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("ParseRecord(%q): err %v, reference err %v", rec, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("ParseRecord(%q): error %q, reference %q", rec, gotErr, wantErr)
			}
			return
		}
		if !sameTrace(got, want) {
			t.Fatalf("ParseRecord(%q) = %+v, reference %+v", rec, got, want)
		}
	})
}

func TestParseRecordDoesNotAllocate(t *testing.T) {
	rec := "153\t39.984702,116.318417,492,1224813000"
	var sink Trace
	allocs := testing.AllocsPerRun(100, func() {
		tr, err := ParseRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		sink = tr
	})
	if allocs != 0 {
		t.Fatalf("ParseRecord allocates %.1f times per valid record, want 0", allocs)
	}
	if sink.User != "153" {
		t.Fatalf("User = %q", sink.User)
	}
}
