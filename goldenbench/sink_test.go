package main

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// The counting sink, fed by a hub on the sub-second paper-testbed golden,
// agrees with the simulator's own counters and the run's result.
func TestCountSinkOnPaperTestbed(t *testing.T) {
	in, err := loadInput("..", "paper-testbed", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{moreFlows: in.moreFlows}
	hub := telemetry.NewHub(telemetry.Config{})
	hub.AddSink(sink)
	res, err := scenario.RunWith(in.reals[0].spec, hub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.check(0, res); err != nil {
		t.Fatal(err)
	}
	c := sink.counts()
	k := res.Counters
	for _, x := range []struct {
		name      string
		got, want int64
	}{
		{"tx", c.Tx, k.Transmissions},
		{"mac acks", c.MACAcks, k.MACAcks},
		{"rx", c.Rx, k.Deliveries},
		{"collisions", c.Collisions, k.Collisions},
		{"channel losses", c.ChannelLosses, k.ChannelLosses},
		{"batches decoded", c.BatchesDecoded, 175/32 + 1},
		{"enqueued", c.Enqueued, 0},
		{"grants", c.Grants, res.CCStats.GrantTx},
		{"lsa floods", c.LSAFloods, res.FloodTx},
	} {
		if x.got != x.want {
			t.Errorf("%s: sink counted %d, want %d", x.name, x.got, x.want)
		}
	}
	// The only flow is MORE: its decodes are coded, frames on flow 0 not.
	if c.CodedRx == 0 || c.CodedRx > c.Rx {
		t.Errorf("%d coded of %d decodes on a MORE transfer", c.CodedRx, c.Rx)
	}
	if got := hub.Report().Events; got == 0 {
		t.Error("hub saw no events")
	}
}

// Events of each kind land in their own count.
func TestCountSinkKinds(t *testing.T) {
	k := &countSink{moreFlows: []bool{false, true}}
	for _, ev := range []telemetry.Event{
		{Kind: telemetry.KindTx},
		{Kind: telemetry.KindTx, Aux: 1},
		{Kind: telemetry.KindRx, Flow: 1},
		{Kind: telemetry.KindRx, Flow: 7},
		{Kind: telemetry.KindDrop, Aux: telemetry.DropCollision},
		{Kind: telemetry.KindDrop, Aux: telemetry.DropChannel},
		{Kind: telemetry.KindEnqueue},
		{Kind: telemetry.KindDequeue, Dur: 5e6},
		{Kind: telemetry.KindQueueDrop},
		{Kind: telemetry.KindGrant},
		{Kind: telemetry.KindLSAFlood},
		{Kind: telemetry.KindBatchDecode},
		{Kind: telemetry.KindReplan},
		{Kind: telemetry.KindPktSend},
		{Kind: telemetry.KindPktDeliver},
		{Kind: telemetry.KindStall},
	} {
		k.Emit(ev)
	}
	want := counts{
		Tx: 1, MACAcks: 1, Rx: 2, CodedRx: 1, Collisions: 1, ChannelLosses: 1,
		Enqueued: 1, Dequeued: 1, QueueDrops: 1, Grants: 1, LSAFloods: 1,
		BatchesDecoded: 1, Replans: 1, PktSent: 1, PktDelivered: 1, QueueWaitP99NS: 5e6,
	}
	if got := k.counts(); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}
