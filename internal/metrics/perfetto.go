// Perfetto/Chrome trace-event export: renders the event-trace ring and the
// span ring as duration/instant events that load directly in ui.perfetto.dev
// (or chrome://tracing).
//
// Layout: each run becomes a block of processes —
//
//	<run> cores     per-core tag-miss slices plus the sampled access spans
//	                (one lane group per core; overlapping accesses get
//	                separate lanes so slices nest instead of colliding)
//	<run> backend   PCSHR lifecycle lanes: occupancy slices with the data
//	                movement (fill start→done) nested, overflow instants
//	<run> hbm/ddr   per-bank row-conflict instants
//
// Timestamps: the trace-event "ts"/"dur" fields are nominally microseconds;
// the exporter writes raw CPU-cycle counts instead (1 displayed "us" = 1
// cycle). Cycles are the simulator's native unit and integers keep the
// export byte-identical across same-seed runs.
package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sort"
)

// TraceDump captures a registry's rings at one instant, in exportable form.
// Timeline, when present, is additionally rendered as counter tracks.
type TraceDump struct {
	Events        []Event           `json:"events,omitempty"`
	EventsDropped uint64            `json:"events_dropped,omitempty"`
	Spans         []Span            `json:"spans,omitempty"`
	SpansDropped  uint64            `json:"spans_dropped,omitempty"`
	Timeline      *TimelineSnapshot `json:"timeline,omitempty"`
}

// Dump snapshots the attached rings and the interval timeline, or returns
// nil when neither tracing nor the timeline is on.
func (r *Registry) Dump() *TraceDump {
	tl := r.timelineSnapshot()
	if r.trace == nil && r.spans == nil && tl == nil {
		return nil
	}
	return &TraceDump{
		Events:        r.trace.Events(),
		EventsDropped: r.trace.Dropped(),
		Spans:         r.spans.Spans(),
		SpansDropped:  r.spans.Dropped(),
		Timeline:      tl,
	}
}

// PerfettoRun is one run's dump labelled for export (the label becomes the
// process-name prefix, e.g. "cact/NOMAD").
type PerfettoRun struct {
	Name string
	Dump *TraceDump
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   uint64 `json:"ts"`
	// Dur is a pointer so complete ("X") events always carry it — even
	// zero-length ones — while instants omit it entirely.
	Dur  *uint64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// dur boxes a duration for traceEvent.Dur.
func dur(v uint64) *uint64 { return &v }

// perfettoFile is the JSON-object trace format ({"traceEvents": [...]}),
// which tolerates the metadata fields Perfetto ignores.
type perfettoFile struct {
	TraceEvents []traceEvent      `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData"`
}

// Process IDs within one run's block (runs are offset by pidStride).
const (
	pidCores    = 1
	pidBackend  = 2
	pidHBM      = 3
	pidDDR      = 4
	pidTimeline = 5
	pidStride   = 8
)

// Per-core tid layout inside the cores process: tid coreID+1 carries the
// tag-miss slices; access-span lanes start at spanLaneBase + core*spanLanes.
const (
	spanLaneBase = 1000
	spanLanes    = 64
)

// WritePerfetto renders the runs as one Chrome trace-event JSON document.
// The output is deterministic: identical dumps marshal byte-identically.
func WritePerfetto(w io.Writer, runs ...PerfettoRun) error {
	f := perfettoFile{
		TraceEvents: []traceEvent{},
		OtherData: map[string]string{
			"clock": "cpu-cycles",
			"note":  "ts/dur are CPU cycle counts (1 displayed us = 1 cycle)",
		},
	}
	for i, run := range runs {
		f.TraceEvents = append(f.TraceEvents, exportRun(i*pidStride, run)...)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// exportRun renders one run's block: metadata first (sorted by pid/tid),
// then content events in deterministic construction order.
func exportRun(base int, run PerfettoRun) []traceEvent {
	if run.Dump == nil {
		return nil
	}
	b := &runBuilder{base: base, threads: map[int]map[int]string{}}
	name := run.Name
	if name == "" {
		name = "run"
	}
	b.process(pidCores, name+" cores")
	b.process(pidBackend, name+" backend")
	b.process(pidHBM, name+" hbm banks")
	b.process(pidDDR, name+" ddr banks")
	if run.Dump.Timeline != nil {
		b.process(pidTimeline, name+" timeline")
	}

	b.exportEvents(run.Dump.Events)
	b.exportSpans(run.Dump.Spans)
	b.exportTimeline(run.Dump.Timeline)

	return append(b.metadata(), b.events...)
}

// exportTimeline renders the interval timeline as Perfetto counter tracks:
// one "C" (counter) series per metric, a point at each window boundary, so
// IPC, DC hit rate, PCSHR high-water, and bandwidth plot as graphs alongside
// the event and span tracks.
func (b *runBuilder) exportTimeline(tl *TimelineSnapshot) {
	if tl == nil || len(tl.Cycles) == 0 {
		return
	}
	for _, name := range tl.MetricNames() {
		values := tl.Metrics[name]
		for i, end := range tl.Cycles {
			if i >= len(values) {
				break
			}
			b.emit(traceEvent{Name: name, Ph: "C",
				Ts: tl.StartCycle + end, Pid: pidTimeline,
				Args: map[string]any{"value": values[i]}})
		}
	}
}

type runBuilder struct {
	base      int
	events    []traceEvent
	processes []traceEvent
	threads   map[int]map[int]string // pid -> tid -> name
}

func (b *runBuilder) process(pid int, name string) {
	b.processes = append(b.processes, traceEvent{
		Name: "process_name", Ph: "M", Pid: b.base + pid,
		Args: map[string]any{"name": name},
	})
	b.threads[pid] = map[int]string{}
}

func (b *runBuilder) thread(pid, tid int, name string) {
	if _, ok := b.threads[pid][tid]; !ok {
		b.threads[pid][tid] = name
	}
}

func (b *runBuilder) emit(ev traceEvent) {
	ev.Pid += b.base
	b.events = append(b.events, ev)
}

// metadata renders process/thread name records sorted by (pid, tid).
func (b *runBuilder) metadata() []traceEvent {
	out := append([]traceEvent(nil), b.processes...)
	pids := make([]int, 0, len(b.threads))
	for pid := range b.threads {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		tids := make([]int, 0, len(b.threads[pid]))
		for tid := range b.threads[pid] {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			out = append(out, traceEvent{
				Name: "thread_name", Ph: "M", Pid: b.base + pid, Tid: tid,
				Args: map[string]any{"name": b.threads[pid][tid]},
			})
		}
	}
	return out
}

// exportEvents renders the typed event ring: tag-miss pairs become per-core
// slices, the PCSHR lifecycle becomes occupancy lanes with fill movement
// nested, and row conflicts become per-bank instants.
func (b *runBuilder) exportEvents(events []Event) {
	type openMiss struct {
		start uint64
		core  int
	}
	tagOpen := map[uint64]openMiss{} // vpn -> begin

	// PCSHR lifecycle intervals, collected then lane-assigned.
	type pcshrKey struct {
		frame uint64
		wb    bool
	}
	type pcshrSlice struct {
		key        pcshrKey
		start, end uint64
		open       bool
		peer       uint64 // the other frame number (PFN for fills)
		fillStart  uint64
		fillEnd    uint64
		hasFill    bool
	}
	var slices []pcshrSlice
	openSlice := map[pcshrKey]int{} // key -> index into slices

	var maxCycle uint64
	for _, ev := range events {
		if ev.Cycle > maxCycle {
			maxCycle = ev.Cycle
		}
	}

	for _, ev := range events {
		switch ev.Kind {
		case EvTagMissBegin:
			tagOpen[ev.A] = openMiss{start: ev.Cycle, core: int(ev.B)}
		case EvTagMissEnd:
			begin, ok := tagOpen[ev.A]
			if !ok {
				// The begin record was overwritten by the ring; keep
				// the resume visible as an instant.
				b.emit(traceEvent{Name: "tag miss end", Ph: "i", S: "t",
					Ts: ev.Cycle, Pid: pidCores, Tid: 1,
					Args: map[string]any{"vpn": ev.A, "latency_cycles": ev.B}})
				continue
			}
			delete(tagOpen, ev.A)
			tid := begin.core + 1
			b.thread(pidCores, tid, "core "+itoa(begin.core)+" tag-miss")
			b.emit(traceEvent{Name: "tag miss", Ph: "X",
				Ts: begin.start, Dur: dur(ev.Cycle - begin.start),
				Pid: pidCores, Tid: tid,
				Args: map[string]any{"vpn": ev.A, "latency_cycles": ev.B}})
		case EvPCSHRAlloc:
			k := pcshrKey{frame: ev.A, wb: ev.B == 1}
			openSlice[k] = len(slices)
			slices = append(slices, pcshrSlice{key: k, start: ev.Cycle, open: true})
		case EvPCSHRRetire:
			k := pcshrKey{frame: ev.A, wb: ev.B == 1}
			if i, ok := openSlice[k]; ok {
				slices[i].end = ev.Cycle
				slices[i].open = false
				delete(openSlice, k)
			}
		case EvFillStart:
			if i, ok := openSlice[pcshrKey{frame: ev.A}]; ok {
				slices[i].fillStart = ev.Cycle
				slices[i].hasFill = true
				slices[i].peer = ev.B
			}
		case EvFillDone:
			if i, ok := openSlice[pcshrKey{frame: ev.A}]; ok && slices[i].hasFill {
				slices[i].fillEnd = ev.Cycle
			}
		case EvPCSHROverflow:
			b.thread(pidBackend, 0, "overflow")
			b.emit(traceEvent{Name: "sub-entry overflow", Ph: "i", S: "t",
				Ts: ev.Cycle, Pid: pidBackend, Tid: 0,
				Args: map[string]any{"frame": ev.A, "sub_block": ev.B}})
		case EvRowConflict:
			dev, ch, bank := int(ev.B>>32), int(ev.B>>16)&0xffff, int(ev.B)&0xffff
			pid := pidHBM
			if dev == 1 {
				pid = pidDDR
			}
			tid := ch<<8 | bank + 1
			b.thread(pid, tid, "ch"+itoa(ch)+" bank"+itoa(bank))
			b.emit(traceEvent{Name: "row conflict", Ph: "i", S: "t",
				Ts: ev.Cycle, Pid: pid, Tid: tid,
				Args: map[string]any{"addr": ev.A}})
		}
	}

	// Unfinished tag misses: visible as instants at their begin cycle.
	vpns := make([]uint64, 0, len(tagOpen))
	for vpn := range tagOpen {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		o := tagOpen[vpn]
		tid := o.core + 1
		b.thread(pidCores, tid, "core "+itoa(o.core)+" tag-miss")
		b.emit(traceEvent{Name: "tag miss (open)", Ph: "i", S: "t",
			Ts: o.start, Pid: pidCores, Tid: tid,
			Args: map[string]any{"vpn": vpn}})
	}

	// Lane-assign the PCSHR slices (greedy interval packing in start
	// order, which is how the ring recorded them).
	var laneBusyUntil []uint64
	for _, s := range slices {
		end := s.end
		if s.open {
			end = maxCycle
		}
		lane := -1
		for l, busy := range laneBusyUntil {
			if busy <= s.start {
				lane = l
				break
			}
		}
		if lane == -1 {
			lane = len(laneBusyUntil)
			laneBusyUntil = append(laneBusyUntil, 0)
		}
		laneBusyUntil[lane] = end
		tid := lane + 1
		b.thread(pidBackend, tid, "pcshr lane "+itoa(lane))
		name := "fill"
		args := map[string]any{"cfn": s.key.frame}
		if s.key.wb {
			name = "writeback"
			args = map[string]any{"pfn": s.key.frame}
		}
		if s.open {
			args["truncated"] = true
		}
		b.emit(traceEvent{Name: name, Ph: "X",
			Ts: s.start, Dur: dur(end - s.start), Pid: pidBackend, Tid: tid, Args: args})
		if s.hasFill {
			fe := s.fillEnd
			if fe == 0 {
				fe = end
			}
			b.emit(traceEvent{Name: "page copy", Ph: "X",
				Ts: s.fillStart, Dur: dur(fe - s.fillStart), Pid: pidBackend, Tid: tid,
				Args: map[string]any{"cfn": s.key.frame, "pfn": s.peer}})
		}
	}
}

// exportSpans renders the sampled access spans: the spans of one access (one
// SpanID) share a lane of their core's lane group, lanes packed greedily so
// concurrent sampled accesses never interleave on one track.
func (b *runBuilder) exportSpans(spans []Span) {
	if len(spans) == 0 {
		return
	}
	// Group by access.
	type access struct {
		id         uint64
		core       int32
		start, end uint64
		spans      []Span
	}
	idx := map[uint64]int{}
	var accesses []access
	for _, s := range spans {
		i, ok := idx[s.ID]
		if !ok {
			i = len(accesses)
			idx[s.ID] = i
			accesses = append(accesses, access{id: s.ID, core: s.Core,
				start: math.MaxUint64})
		}
		a := &accesses[i]
		a.spans = append(a.spans, s)
		if s.Start < a.start {
			a.start = s.Start
		}
		if s.End > a.end {
			a.end = s.End
		}
	}
	sort.SliceStable(accesses, func(i, j int) bool {
		if accesses[i].start != accesses[j].start {
			return accesses[i].start < accesses[j].start
		}
		return accesses[i].id < accesses[j].id
	})

	// Per-core greedy lane packing.
	lanes := map[int32][]uint64{} // core -> lane busy-until
	for _, a := range accesses {
		busy := lanes[a.core]
		lane := -1
		for l, until := range busy {
			if until <= a.start {
				lane = l
				break
			}
		}
		if lane == -1 {
			lane = len(busy)
			busy = append(busy, 0)
		}
		busy[lane] = a.end
		lanes[a.core] = busy
		if lane >= spanLanes {
			lane = spanLanes - 1 // cap; later slices may overlap visually
		}
		tid := spanLaneBase + int(a.core)*spanLanes + lane
		b.thread(pidCores, tid, "core "+itoa(int(a.core))+" access["+itoa(lane)+"]")
		// Longest-first so nested slices render inside their parents.
		sort.SliceStable(a.spans, func(i, j int) bool {
			si, sj := a.spans[i], a.spans[j]
			if si.Start != sj.Start {
				return si.Start < sj.Start
			}
			di, dj := si.End-si.Start, sj.End-sj.Start
			if di != dj {
				return di > dj
			}
			return si.Kind < sj.Kind
		})
		for _, s := range a.spans {
			b.emit(traceEvent{Name: s.Kind.String(), Ph: "X",
				Ts: s.Start, Dur: dur(s.End - s.Start), Pid: pidCores, Tid: tid,
				Args: map[string]any{"span_id": s.ID}})
		}
	}
}

// itoa is a tiny strconv.Itoa for non-negative ints (avoids the import in
// the hot-free export path; determinism over micro-elegance).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	if n < 0 {
		return "-" + itoa(-n)
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
