package router

import (
	"fmt"

	"repro/internal/sched"
)

// View exposes the router's live state to a routing policy. Peeking a
// hit length binary-searches one hash chain against one instance's cache
// (O(log blocks) map probes) and against its sorted in-flight chains
// (O(log in-flight) comparisons of O(log blocks) probes each), hashing
// the prompt on first use, so policies should only peek the instances
// they actually score.
type View interface {
	// Instances returns the instance count (always >= 1).
	Instances() int
	// Load returns instance i's live load.
	Load(i int) Load
	// HitTokens estimates the request's prefix-cache hit length on
	// instance i without disturbing LRU order.
	HitTokens(i int, r *sched.Request) int
	// EstSeconds estimates the request's execution seconds on instance i
	// given hit cached tokens.
	EstSeconds(i int, r *sched.Request, hit int) float64
}

// Policy picks the instance a request is routed to.
type Policy interface {
	// Name identifies the policy in metrics and experiment output.
	Name() string
	// Pick returns the chosen instance index in [0, v.Instances()).
	Pick(r *sched.Request, v View) int
}

// PolicyByName resolves a policy from its configuration string.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "userhash":
		return UserHash{}, nil
	case "leastloaded":
		return LeastLoaded{}, nil
	case "affinity":
		return AffinityLoad{}, nil
	default:
		return nil, fmt.Errorf("router: unknown policy %q (want userhash, leastloaded or affinity)", name)
	}
}

// hashUser avalanches a user ID (splitmix64 finalizer) so that sequential
// IDs spread across instances instead of striping.
func hashUser(userID int) uint64 {
	z := uint64(userID) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// homeOf returns the user's hash-affinity home instance.
func homeOf(userID, n int) int { return int(hashUser(userID) % uint64(n)) }

// UserHash is the paper's §7.1 baseline for ablation: every request of a
// user goes to a fixed instance determined by hashing the user ID. Unlike
// internal/fleet's first-appearance round-robin it keeps no per-user
// state, so it scales to millions of users, but it is load-blind: a hot
// user or a long prompt swamps its home instance while neighbors idle.
type UserHash struct{}

// Name implements Policy.
func (UserHash) Name() string { return "userhash" }

// Pick implements Policy.
func (UserHash) Pick(r *sched.Request, v View) int { return homeOf(r.UserID, v.Instances()) }

// LeastLoaded routes every request to the instance with the smallest
// estimated backlog, ignoring prefix-cache affinity. It balances perfectly
// but scatters a user's requests, recomputing their shared prefix on every
// instance it touches.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "leastloaded" }

// Pick implements Policy.
func (LeastLoaded) Pick(r *sched.Request, v View) int { return leastLoaded(v) }

// leastLoaded returns the instance with the smallest backlog, breaking
// ties on queued tokens and then on index (determinism for tests).
func leastLoaded(v View) int {
	best := 0
	for i := 1; i < v.Instances(); i++ {
		li, lb := v.Load(i), v.Load(best)
		if li.BacklogSeconds < lb.BacklogSeconds ||
			(li.BacklogSeconds == lb.BacklogSeconds && li.QueuedTokens < lb.QueuedTokens) {
			best = i
		}
	}
	return best
}

// DefaultSpillFactor is AffinityLoad's hysteresis: the home instance's
// projected completion must exceed this multiple of the alternative's
// before the policy abandons prefix locality. A factor of 1 (greedy
// per-request optimization) thrashes at sustained load: every transient
// queue imbalance triggers a spill, the spilled request recomputes its
// prefix on the cold instance, and that extra work deepens the very
// queues that caused the spill. Requiring a 2x gap keeps uniform traffic
// pinned to its home (matching the UserHash baseline) while still
// shedding from an instance a hot user has persistently swamped.
const DefaultSpillFactor = 2.0

// AffinityLoad is power-of-two-choices between the request's prefix-cache
// affinity candidate (the user's hash home, where its prefix is most
// likely cached) and the least-loaded instance. Each candidate is scored
// by projected completion: estimated backlog plus the request's estimated
// execution at that candidate's peeked prefix-cache hit length — i.e. hit
// length rewards the score exactly by the execution seconds it saves,
// and backlog penalizes it. The home instance wins until its projected
// completion exceeds DefaultSpillFactor times the alternative's, which
// bounds how far a hot user can skew the cluster without sacrificing
// locality on balanced traffic.
type AffinityLoad struct{}

// Name implements Policy.
func (AffinityLoad) Name() string { return "affinity" }

// Pick implements Policy.
func (AffinityLoad) Pick(r *sched.Request, v View) int {
	aff := affinityCandidate(r, v)
	alt := leastLoaded(v)
	if aff == alt {
		return aff
	}
	score := func(i int) float64 {
		return v.Load(i).BacklogSeconds + v.EstSeconds(i, r, v.HitTokens(i, r))
	}
	if score(aff) > DefaultSpillFactor*score(alt) {
		return alt
	}
	return aff
}

// minAffinityHitFrac is the fraction of a request's length a peeked hit
// must reach before it can pull the request away from its hash home.
// Workloads share a small cross-user template preamble, so without a
// threshold the first instance to cache anything would show a (tiny)
// positive hit for every user and attract the entire population. A
// real per-user profile hit covers most of the request; one eighth
// cleanly separates the two.
const minAffinityHitFrac = 1.0 / 8

// affinityCandidate is the instance whose cache serves the request best:
// the longest significant peeked prefix hit, ties broken by smaller
// backlog, defaulting to the user's hash home. When no instance holds a
// significant prefix (a new user, or one whose cache was evicted
// everywhere), it is the hash home, so cold users behave exactly like
// UserHash. Tracking the cache rather than only the static home lets a
// spilled user migrate: after one recompute on the spill target, its
// warm cache — not the swamped home — attracts the user's subsequent
// requests.
func affinityCandidate(r *sched.Request, v View) int {
	home := homeOf(r.UserID, v.Instances())
	minHit := int(minAffinityHitFrac * float64(r.Len()))
	best, bestHit := home, 0
	if h := v.HitTokens(home, r); h >= minHit {
		bestHit = h
	}
	for i := 0; i < v.Instances(); i++ {
		if i == home {
			continue
		}
		hit := v.HitTokens(i, r)
		if hit < minHit {
			continue
		}
		// Home wins exact ties (strict comparisons) so cold and evenly
		// cached traffic stays put.
		if hit > bestHit ||
			(hit == bestHit && bestHit > 0 && v.Load(i).BacklogSeconds < v.Load(best).BacklogSeconds) {
			best, bestHit = i, hit
		}
	}
	return best
}
