package trace

import (
	"fmt"
	"io"
	"time"
)

// WriteReport renders the analysis as the ASCII bottleneck report the
// `gepeto analyze` subcommand prints.
func WriteReport(w io.Writer, t *Tree, a *Analysis) {
	fmt.Fprintf(w, "trace %d  %s  started %s  wall %s\n",
		t.Seq, a.Root, t.Start().Format(time.RFC3339), usDur(a.WallUs))
	for _, sc := range a.Spans {
		fmt.Fprintf(w, "  span %-32s %8s  %5.1f%%  %s\n", sc.Name, usDur(sc.WallUs), sc.Pct, sc.Detail)
	}
	for i := range a.Jobs {
		ja := &a.Jobs[i]
		fmt.Fprintf(w, "\njob %s  wall %s  status %s\n", ja.Job, usDur(ja.WallUs), ja.Status)
		fmt.Fprintf(w, "  critical path (%d steps, phase attribution):\n", len(ja.Path))
		for _, pc := range ja.Phases {
			fmt.Fprintf(w, "    %-8s %8s  %5.1f%%  %s\n",
				pc.Phase, usDur(pc.DurUs), pc.Pct, bar(pc.Pct))
		}
		for _, st := range ja.Path {
			switch st.Kind {
			case "attempt":
				fmt.Fprintf(w, "    -> %-8s %8s  %s/%d on %s\n",
					st.Phase, usDur(st.DurUs()), st.Task, st.Attempt, st.Node)
			case "merge":
				fmt.Fprintf(w, "    -> %-8s %8s  %s\n", st.Phase, usDur(st.DurUs()), st.Task)
			default:
				fmt.Fprintf(w, "    -> %-8s %8s  (%s)\n", st.Phase, usDur(st.DurUs()), st.Kind)
			}
		}
		if len(ja.Stragglers) > 0 {
			fmt.Fprintf(w, "  stragglers (> factor x phase median):\n")
			for _, s := range ja.Stragglers {
				note := ""
				if s.LostToBackup {
					note = "  [killed: lost to backup]"
				} else if s.Speculated {
					note = "  [speculation engaged]"
				}
				fmt.Fprintf(w, "    %-8s %s/%d on %-10s %8s  %.1fx median (%s)%s\n",
					s.Phase, s.Task, s.Attempt, s.Node, usDur(s.DurUs), s.Factor,
					usDur(s.MedianUs), note)
			}
		}
		if ja.RPC != nil {
			r := ja.RPC
			fmt.Fprintf(w, "  rpc overhead: %d remote attempt(s), roundtrip %s, worker-exec %s, coordination %s\n",
				r.RemoteAttempts, usDur(r.RPCUs), usDur(r.ExecUs), usDur(r.CoordUs))
			fmt.Fprintf(w, "    on critical path: %s (%.1f%% of wall)\n",
				usDur(r.PathCoordUs), r.PathCoordPct)
		}
		if ja.Skew != nil {
			sk := ja.Skew
			fmt.Fprintf(w, "  shuffle skew: %d partition(s), %d records, %d bytes, imbalance %.2fx\n",
				sk.Partitions, sk.TotalRecords, sk.TotalBytes, sk.Imbalance)
			fmt.Fprintf(w, "    hottest: p%04d  runs=%d records=%d bytes=%d merge=%s\n",
				sk.MaxPart.Part, sk.MaxPart.Runs, sk.MaxPart.Records, sk.MaxPart.Bytes,
				usDur(sk.MaxPart.DurUs))
			for _, p := range sk.Hot {
				fmt.Fprintf(w, "    HOT p%04d: records=%d bytes=%d (imbalanced partition)\n",
					p.Part, p.Records, p.Bytes)
			}
		}
	}
}

// usDur renders a microsecond count as a duration string.
func usDur(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).Round(time.Microsecond).String()
}

// bar renders a 0-100 percentage as a 20-char bar.
func bar(pct float64) string {
	n := int(pct/5 + 0.5)
	if n > 20 {
		n = 20
	}
	if n < 0 {
		n = 0
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
