package pool

import (
	"context"
	"sync"
)

// Context-aware phase submission. Every primitive in this file obeys
// one cancellation rule: once ctx is cancelled, no new tasks are
// dispensed. Tasks already running finish normally, the phase barrier
// releases as usual, and the Runtime stays fully reusable — a cancelled
// phase drains its workers back to the parked state instead of wedging
// them. The primitives then report ctx.Err().
//
// The determinism contract is unaffected: with an uncancelled context
// the per-task ctx.Err() probe reads nil and every task runs, so
// results stay bit-identical for every worker count. Under
// cancellation the partial work is discarded by the callers (they
// return the context error), so the schedule-dependence of *which*
// tasks ran before the cut is never observable.
//
// Cancellation granularity is the task: a phase stops between tasks,
// never inside one. Long-running tasks (deep search branches) keep
// their own periodic ctx probes — see the miners — so the latency of a
// cancellation is bounded by a probe interval, not by a whole branch.

// RunCtx executes fn(state, task) for every task in [0, tasks), like
// Run, with a cancellation cut between tasks: when ctx is cancelled,
// the dispensing of new tasks stops, running tasks finish, and
// ctx.Err() is returned. A nil error means every task ran.
func (p *Pool[S]) RunCtx(ctx context.Context, tasks int, fn func(s S, task int)) error {
	if len(p.states) == 1 {
		for t := 0; t < tasks; t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(p.states[0], t)
		}
		return ctx.Err()
	}
	p.rt.phase(len(p.states), tasks, func(slot, t int) bool {
		if ctx.Err() != nil {
			return false
		}
		fn(p.states[slot], t)
		return true
	})
	return ctx.Err()
}

// RunErrCtx is RunCtx for fallible tasks. After the first failure no
// new tasks are dispensed (running ones finish), and the error of the
// lowest-indexed failed task among those that ran is returned. When the
// failure condition is schedule-independent — the only use in this
// repository is the ECLAT result-cap overflow, which trips in every
// schedule iff the total result count exceeds the cap — the returned
// error is deterministic too. When the context is cancelled its error
// takes precedence over any task error: task errors observed
// mid-cancellation are schedule-dependent, while ctx.Err() is not.
func (p *Pool[S]) RunErrCtx(ctx context.Context, tasks int, fn func(s S, task int) error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var first error
	if len(p.states) == 1 {
		for t := 0; t < tasks && first == nil; t++ {
			if first = ctx.Err(); first == nil {
				first = fn(p.states[0], t)
			}
		}
	} else {
		var (
			mu    sync.Mutex
			errAt = -1
		)
		p.rt.phase(len(p.states), tasks, func(slot, t int) bool {
			err := ctx.Err()
			if err == nil {
				err = fn(p.states[slot], t)
			}
			if err == nil {
				return true
			}
			mu.Lock()
			if errAt < 0 || t < errAt {
				errAt, first = t, err
			}
			mu.Unlock()
			return false
		})
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return first
}

// MapOrderedIntoCtxOn returns out with out[i] = fn(i) for i in [0, n),
// computed on rt (nil means Default) by up to `workers` executors
// pulling indices dynamically, with the cancellation cut of RunCtx.
// Each index writes only its own slot, so the result is independent of
// the worker count. The result is written into dst's storage when its
// capacity suffices (the returned slice always has length n), so
// repeated callers can reuse one buffer; stale dst contents are never
// read. On cancellation the returned slice (with only some slots
// written) is scratch for reuse, never data: callers must discard its
// contents alongside the returned ctx.Err().
func MapOrderedIntoCtxOn[T any](rt *Runtime, ctx context.Context, dst []T, workers, n int, fn func(i int) T) ([]T, error) {
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]T, n)
	}
	workers = Size(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
			dst[i] = fn(i)
		}
		return dst, ctx.Err()
	}
	if rt == nil {
		rt = Default()
	}
	rt.phase(workers, n, func(_, i int) bool {
		if ctx.Err() != nil {
			return false
		}
		dst[i] = fn(i)
		return true
	})
	return dst, ctx.Err()
}

// MapChunksIntoCtxOn splits [0, n) into chunks of the given size,
// applies fn to each chunk (dynamically scheduled on rt; nil means
// Default), and appends the per-chunk slices to dst in chunk order, so
// repeated callers can reuse one destination buffer. Because the chunk
// size is the caller's — never derived from the worker count — both the
// per-chunk computations and the concatenation order are identical for
// every worker count. On cancellation (the cut of RunCtx) the returned
// slice is dst unchanged (no partial chunks are appended) alongside
// ctx.Err().
func MapChunksIntoCtxOn[T any](rt *Runtime, ctx context.Context, dst []T, workers, n, chunk int, fn func(lo, hi int) []T) ([]T, error) {
	if n <= 0 {
		return dst, ctx.Err()
	}
	if chunk < 1 {
		chunk = 1
	}
	tasks := (n + chunk - 1) / chunk
	if tasks == 1 {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		part := fn(0, n)
		// Honour the no-partial-appends contract: a cancellation during
		// the chunk leaves dst untouched, like the multi-task path.
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		return append(dst, part...), nil
	}
	parts := make([][]T, tasks)
	if rt == nil {
		rt = Default()
	}
	rt.phase(Size(workers, tasks), tasks, func(_, t int) bool {
		if ctx.Err() != nil {
			return false
		}
		lo := t * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		parts[t] = fn(lo, hi)
		return true
	})
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	if free := cap(dst) - len(dst); free < total {
		grown := make([]T, len(dst), len(dst)+total)
		copy(grown, dst)
		dst = grown
	}
	for _, part := range parts {
		dst = append(dst, part...)
	}
	return dst, nil
}
