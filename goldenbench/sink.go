package main

import "repro/internal/telemetry"

// counts is the work a run did, counted per layer from the telemetry
// events. For one spec and seed every field repeats exactly.
type counts struct {
	Tx, MACAcks, Rx           int64 // sim: data frames on air, MAC ACKs, frame decodes
	Collisions, ChannelLosses int64 // sim: receptions lost by cause
	CodedRx                   int64 // frame decodes on MORE flows
	Enqueued, Dequeued        int64 // congest: frames admitted to and released from queues
	QueueDrops, Grants        int64 // congest: never-sent frames dropped; credit grants sent
	LSAFloods                 int64 // linkstate: advertisements sent (own or re-flooded)
	BatchesDecoded, Replans   int64 // protocol: sink batch decodes; plan or route rebuilds
	PktSent, PktDelivered     int64 // srcr: first offers and end-to-end deliveries
	QueueWaitP99NS            float64
}

// countSink is the benchmark's telemetry sink: a Hub fans every event out
// to it, and it only counts.
type countSink struct {
	c counts
	// moreFlows marks the flow IDs whose frames are coded.
	moreFlows []bool
	wait      telemetry.Hist
}

// Emit implements telemetry.Sink.
func (k *countSink) Emit(ev telemetry.Event) {
	c := &k.c
	switch ev.Kind {
	case telemetry.KindTx:
		if ev.Aux != 0 {
			c.MACAcks++
		} else {
			c.Tx++
		}
	case telemetry.KindRx:
		c.Rx++
		if int(ev.Flow) < len(k.moreFlows) && k.moreFlows[ev.Flow] {
			c.CodedRx++
		}
	case telemetry.KindDrop:
		if ev.Aux == telemetry.DropCollision {
			c.Collisions++
		} else {
			c.ChannelLosses++
		}
	case telemetry.KindEnqueue:
		c.Enqueued++
	case telemetry.KindDequeue:
		c.Dequeued++
		k.wait.Observe(ev.Dur)
	case telemetry.KindQueueDrop:
		c.QueueDrops++
	case telemetry.KindGrant:
		c.Grants++
	case telemetry.KindLSAFlood:
		c.LSAFloods++
	case telemetry.KindBatchDecode:
		c.BatchesDecoded++
	case telemetry.KindReplan:
		c.Replans++
	case telemetry.KindPktSend:
		c.PktSent++
	case telemetry.KindPktDeliver:
		c.PktDelivered++
	}
}

// counts returns the totals, with the queue-wait p99 filled in.
func (k *countSink) counts() counts {
	c := k.c
	c.QueueWaitP99NS = k.wait.Quantile(99)
	return c
}
