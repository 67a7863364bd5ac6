package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"sigkern/internal/resilience"
)

// errBudgetExhausted ends a route whose deadline budget ran out.
var errBudgetExhausted = errors.New("deadline budget exhausted")

// budget is one request's deadline budget, zero when the client set
// none; every attempt of the request, in every sub-batch, spends it.
type budget struct {
	d        time.Duration
	deadline time.Time
}

// submitBudget reads the request's deadline budget from its
// X-Deadline-Budget header or, absent one, the ?timeout= the client is
// already waiting with, and starts it.
func submitBudget(r *http.Request) (budget, error) {
	v := r.Header.Get("X-Deadline-Budget")
	if v == "" {
		v = r.URL.Query().Get("timeout")
	}
	d, err := resilience.ParseTimeout(v, 0)
	if err != nil || d == 0 {
		return budget{}, err
	}
	return budget{d: d, deadline: time.Now().Add(d)}, nil
}

// routeOrder returns the shards to try for a key: its ring successors
// from the owner on, in byHealth order.
func (g *Gateway) routeOrder(key string) []string {
	return g.byHealth(g.ring.Successors(key))
}

// byHealth orders shards ready first, then alive but not ready (a
// draining shard still answers reads and dedups submits), then — last
// resort, so a failed probe sweep cannot black-hole traffic — the rest,
// keeping the given order within each class.
func (g *Gateway) byHealth(names []string) []string {
	order := make([]string, 0, len(names))
	var alive, rest []string
	for _, name := range names {
		switch {
		case g.prober.Ready(name):
			order = append(order, name)
		case g.prober.Alive(name):
			alive = append(alive, name)
		default:
			rest = append(rest, name)
		}
	}
	return append(append(order, alive...), rest...)
}

// attempt runs one routed request at one shard under ctx, with hdr
// carrying its X-Deadline-Budget. It returns the shard's status (a 5xx
// may come with an error describing it), or 0 and the error when no
// whole answer came back: the transport failed or a stream broke.
type attempt func(ctx context.Context, shard string, hdr http.Header) (int, error)

// route is the gateway's one routing loop, for POST /v1/jobs and every
// /v1/batch and /v1/dse sub-batch. It walks routeOrder(key); each shard
// gets a breaker check and an even slice of the budget left, as its
// context deadline and its X-Deadline-Budget, so a slow first shard
// cannot leave the reroute a guaranteed failure. An answer below 500
// (429 and 4xx too: the shard is working) ends the route as a breaker
// success, and as a reroute off the key's ring owner. A 5xx or a shard
// fault records a breaker failure and moves on. An attempt cut short by
// its slice or by the caller, or answered 504 (the shard's word that
// the budget ran out there), charges nobody: the breaker releases it,
// and the route moves on while budget remains, or stops when the caller
// has left. route returns nil once a shard answered, otherwise
// errBudgetExhausted (counted), the caller's context error or the last
// failure; retryAfter is the largest Retry-After, in seconds, of the
// breakers that refused.
func (g *Gateway) route(ctx context.Context, key string, b budget, hdr http.Header, try attempt) (retryAfter int, err error) {
	order := g.routeOrder(key)
	err = errors.New("no shard reachable")
	for i, name := range order {
		var slice time.Duration
		if !b.deadline.IsZero() {
			remaining := time.Until(b.deadline)
			if remaining <= 0 {
				break
			}
			slice = remaining / time.Duration(len(order)-i)
		}
		br := g.breakers.Get(name)
		if berr := br.Allow(); berr != nil {
			g.metrics.breakerRejected.Inc()
			retryAfter = max(retryAfter, int(br.RetryAfter().Seconds())+1)
			err = berr
			continue
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if !b.deadline.IsZero() {
			hdr.Set("X-Deadline-Budget", slice.String())
			attemptCtx, cancel = context.WithTimeout(ctx, slice)
		}
		status, aerr := try(attemptCtx, name, hdr)
		// Classify before cancel: afterwards every context reads done.
		fault := status == 0 && g.shardFault(attemptCtx, name, aerr)
		cancel()
		if status > 0 && status < 500 {
			br.Record(true)
			if name != g.ring.Owner(key) {
				g.metrics.reroutes.Inc()
			}
			return retryAfter, nil
		}
		if err = aerr; err == nil {
			err = fmt.Errorf("shard %s answered %d", name, status)
		}
		if fault || (status >= 500 && status != http.StatusGatewayTimeout) {
			br.Record(false)
			continue
		}
		// Cut short by its slice or by the caller, or a shard's 504 (the
		// budget ran out there): no evidence against the shard.
		br.Cancel()
		if ctx.Err() != nil {
			return retryAfter, ctx.Err()
		}
	}
	if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
		g.metrics.budgetExhausted.Inc()
		return retryAfter, fmt.Errorf("%w after %s", errBudgetExhausted, b.d)
	}
	return retryAfter, err
}

// shardFault decides whether a call that failed with err was the
// shard's fault: not when its own context ended it (the caller hung up,
// or the attempt's budget slice ran out), since a healthy shard can be
// slower than a budget. A fault marks the shard down until its next
// probe and counts an upstream error.
func (g *Gateway) shardFault(ctx context.Context, shard string, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	g.metrics.upstreamErrors.Inc()
	g.prober.ObserveFailure(shard, err)
	return true
}
