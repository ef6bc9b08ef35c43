package gepeto

import (
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// span emits a SpanStart on the engine's bus and returns a closer that
// emits the matching SpanEnd. errp, if non-nil, is read at close time
// so the span records the pipeline's failure (use with named returns):
//
//	defer span(e, "kmeans:"+workDir, "", "k=11", &err)()
//
// The bus is nil-safe, so uninstrumented engines pay only the two
// calls.
func span(e *mapreduce.Engine, id, parent, detail string, errp *error) func() {
	return spanWithResult(e, id, parent, detail, errp, nil)
}

// spanWithResult is span for work whose outcome is known only at its
// end: a non-empty *result is carried on the SpanEnd and replaces the
// span's detail (the k-means import reports the records and bytes it
// wrote this way).
func spanWithResult(e *mapreduce.Engine, id, parent, detail string, errp *error, result *string) func() {
	bus := e.Obs()
	bus.Emit(obs.Event{Type: obs.SpanStart, Span: id, Parent: parent, Detail: detail})
	return func() {
		ev := obs.Event{Type: obs.SpanEnd, Span: id}
		if errp != nil && *errp != nil {
			ev.Err = (*errp).Error()
		}
		if result != nil {
			ev.Detail = *result
		}
		bus.Emit(ev)
	}
}
