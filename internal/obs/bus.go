package obs

// Bus collects events from one simulation run. It keeps the first `budget`
// events in a bounded ring for post-hoc inspection (counting the rest as
// dropped) and streams every event — including ones the ring drops — to the
// attached sinks, so aggregations never truncate.
//
// A Bus is not safe for concurrent use: it belongs to one simulation run,
// and the sweep engine gives every parallel cell its own bus and merges the
// results in canonical cell order. All methods are safe on a nil receiver
// and do nothing, which is the zero-cost guard unobserved runs rely on.
type Bus struct {
	budget  int // immutable after NewBus
	ring    []Event
	dropped uint64
	seq     uint64
	sinks   []Sink
}

// DefaultBudget bounds the ring of a bus created by NewBus when the caller
// passes a negative budget. Streams that need every event attach a sink.
const DefaultBudget = 1 << 16

// NewBus returns a bus whose ring retains at most budget events. budget 0
// disables the ring entirely (sinks still see everything); a negative
// budget selects DefaultBudget.
func NewBus(budget int) *Bus {
	if budget < 0 {
		budget = DefaultBudget
	}
	return &Bus{budget: budget}
}

// Attach adds a sink; every subsequent event is forwarded to it.
func (b *Bus) Attach(s Sink) {
	if b == nil {
		return
	}
	b.sinks = append(b.sinks, s)
}

// Emit records one event. The sequence number is assigned here, so the
// stream's order is exactly emission order.
func (b *Bus) Emit(kind Kind, cycle uint64, actor int, epoch, addr, arg, aux uint64) {
	if b == nil {
		return
	}
	b.emit(Event{Cycle: cycle, Kind: kind, Actor: actor, Epoch: epoch,
		Addr: addr, Arg: arg, Aux: aux})
}

// EmitNote records one event carrying a free-form note (salvage decisions).
func (b *Bus) EmitNote(kind Kind, cycle uint64, actor int, epoch, addr, arg, aux uint64, note string) {
	if b == nil {
		return
	}
	b.emit(Event{Cycle: cycle, Kind: kind, Actor: actor, Epoch: epoch,
		Addr: addr, Arg: arg, Aux: aux, Note: note})
}

// emit appends one event to the ring and fans it out to the sinks.
func (b *Bus) emit(e Event) {
	e.Seq = b.seq
	b.seq++
	if len(b.ring) < b.budget {
		b.ring = append(b.ring, e)
	} else {
		b.dropped++
	}
	for _, s := range b.sinks {
		s.Record(e)
	}
}

// Events returns the retained ring (the first min(budget, emitted) events,
// in emission order). The slice is the bus's own storage; callers must not
// mutate it.
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	return b.ring
}

// Emitted returns how many events have been emitted in total.
func (b *Bus) Emitted() uint64 {
	if b == nil {
		return 0
	}
	return b.seq
}

// Dropped returns how many events the bounded ring did not retain. Sinks
// saw them regardless.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}
