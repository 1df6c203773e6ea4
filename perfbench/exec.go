package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sbgp/internal/sim"
)

// span is one timed call the benchmark made into a layer of the
// program. Parent is the id of the enclosing span, -1 for a root; Run
// numbers the simulation the span belongs to, so the spans of one
// simulation share it. Start and End count nanoseconds from the
// recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until write. A nil recorder records
// nothing, yet begin/end still time the call: untraced runs measure
// their end-to-end metrics through the same calls without keeping any
// spans.
type recorder struct {
	epoch time.Time
	run   int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanTok is an open span, returned by begin and closed by end.
type spanTok struct {
	id    int
	start time.Time
}

func (r *recorder) begin(name string, parent int) spanTok {
	t := spanTok{id: -1, start: time.Now()}
	if r != nil {
		t.id = len(r.spans)
		r.spans = append(r.spans, span{
			ID: t.id, Parent: parent, Run: r.run, Name: name,
			Start: t.start.Sub(r.epoch).Nanoseconds(), End: -1,
		})
	}
	return t
}

// end closes t and returns its duration.
func (r *recorder) end(t spanTok) time.Duration {
	now := time.Now()
	if r != nil && t.id >= 0 {
		r.spans[t.id].End = now.Sub(r.epoch).Nanoseconds()
	}
	return now.Sub(t.start)
}

// selfTime is the span's duration minus the part of it that its child
// spans cover.
func (r *recorder) selfTime(id int) time.Duration {
	p := r.spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range r.spans {
		if s.Parent != id || s.End < 0 {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	var covered, reach int64 = 0, p.Start
	for _, k := range kids {
		if k.lo > reach {
			reach = k.lo
		}
		if k.hi > reach {
			covered += k.hi - reach
			reach = k.hi
		}
	}
	return time.Duration(p.End - p.Start - covered)
}

// write stores the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// shardExec runs every shard of a round in-process: what the Sim's own
// default executor does, behind the benchmark's timing wrapper.
type shardExec struct{ eng *sim.ShardEngine }

func (e shardExec) TotalShards() int { return e.eng.TotalShards() }

func (e shardExec) ExecRound(st sim.RoundState, cands []int32) ([]sim.ShardPartial, sim.ExecInfo, error) {
	return e.eng.ComputeRound(st, cands), sim.ExecInfo{}, nil
}

// callRecord is what the timing wrapper saw of one executor call: its
// wall time from outside, the slowest shard's and the summed shards'
// compute wall time as the shards measured it, and the robustness
// events the executor reported.
type callRecord struct {
	wall     time.Duration
	shardMax time.Duration
	shardSum time.Duration
	shards   int
	info     sim.ExecInfo
}

// timedExecutor wraps the executor a Sim runs its rounds on. Every call
// becomes an "exec.round" span under the current RunE span; the first
// call of a RunE is the pristine pass, the later ones the game's rounds.
type timedExecutor struct {
	inner  sim.Executor
	rec    *recorder
	parent int
	calls  []callRecord
}

func (t *timedExecutor) TotalShards() int { return t.inner.TotalShards() }

func (t *timedExecutor) ExecRound(st sim.RoundState, cands []int32) ([]sim.ShardPartial, sim.ExecInfo, error) {
	tok := t.rec.begin("exec.round", t.parent)
	parts, info, err := t.inner.ExecRound(st, cands)
	c := callRecord{wall: t.rec.end(tok), info: info, shards: len(parts)}
	for i := range parts {
		w := time.Duration(parts[i].Stats.WallNS)
		c.shardSum += w
		if w > c.shardMax {
			c.shardMax = w
		}
	}
	t.calls = append(t.calls, c)
	return parts, info, err
}

// runE runs s to completion as one "sim.RunE" span and returns the
// result with its wall time, the wall time of its first executor call
// (the pristine pass) and the span's id (-1 when not recording).
func (t *timedExecutor) runE(s *sim.Sim) (res *sim.Result, wall, pristine time.Duration, id int, err error) {
	t.calls = t.calls[:0]
	tok := t.rec.begin("sim.RunE", -1)
	t.parent = tok.id
	res, err = s.RunE()
	wall = t.rec.end(tok)
	t.parent = -1
	if err != nil {
		return nil, wall, 0, tok.id, err
	}
	if len(t.calls) == 0 {
		return nil, wall, 0, tok.id, fmt.Errorf("RunE made no executor call")
	}
	return res, wall, t.calls[0].wall, tok.id, nil
}
