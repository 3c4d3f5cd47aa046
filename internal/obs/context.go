package obs

import (
	"context"
	"sync/atomic"
)

// traceKey is the context key both trace carriers share.
type traceKey struct{}

// ContextWithTrace attaches a trace to ctx. This is the ordinary carrier for
// HTTP requests, where the per-request context.WithValue allocation is lost
// in the noise of header parsing.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceRef is the allocation-free trace carrier: bind one ref into a context
// once, then point it at the current request's trace with Set. Tight
// request loops (and the TracedPredict allocation ceiling) use it to keep
// tracing inside the warm-predict allocation budget — context.WithValue
// costs an allocation per call, Set costs none.
type TraceRef struct{ p atomic.Pointer[Trace] }

// Set points the ref at tr (nil detaches).
func (r *TraceRef) Set(tr *Trace) { r.p.Store(tr) }

// ContextWithTraceRef binds ref into ctx under the shared trace key.
func ContextWithTraceRef(ctx context.Context, ref *TraceRef) context.Context {
	return context.WithValue(ctx, traceKey{}, ref)
}

// TraceFrom extracts the current trace from ctx, resolving either carrier.
// Returns nil — inert for every Trace method — when ctx carries no trace.
func TraceFrom(ctx context.Context) *Trace {
	switch v := ctx.Value(traceKey{}).(type) {
	case *Trace:
		return v
	case *TraceRef:
		return v.p.Load()
	}
	return nil
}
