package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/wire"
)

// probeLayers measures, at the end of a traced run, the layers below
// detection that no phase of a workload calls on its own: the message
// transports, the wire codec and the compiled kernel. They run last because
// the transport rounds overwrite the network's message state.
func (r *run) probeLayers() error {
	r.ov.net.AttachWAL(nil) // the journal is closed; nothing below mutates journaled state
	if err := r.probeTransports(); err != nil {
		return err
	}
	r.probeWire()
	return r.probeKernel()
}

// transportRounds is how many rounds each transport carries. The tolerance
// is out of reach, so every transport carries exactly that many.
const transportRounds = 15

func (r *run) probeTransports() error {
	for _, kind := range network.Kinds() {
		r.ov.net.ResetMessages()
		var det core.DetectResult
		var err error
		d := r.timed("network."+string(kind), func() {
			det, err = r.ov.net.RunDetection(core.DetectOptions{
				MaxRounds: transportRounds, Tolerance: 1e-300, Seed: r.seed, Transport: kind, Shards: r.sz.Clients,
			})
		})
		if err != nil {
			return fmt.Errorf("%s transport: %w", kind, err)
		}
		r.attempted++
		if det.Rounds != transportRounds {
			r.failf("%s transport ran %d rounds, want %d", kind, det.Rounds, transportRounds)
		}
		r.v["network."+string(kind)+"_round_us"] = micros(d) / transportRounds
		if kind == network.KindSim {
			r.v["network.delivered"] = float64(det.Transport.Delivered)
			r.v["network.dropped"] = float64(det.Transport.Dropped)
		} else if float64(det.Transport.Delivered) != r.v["network.delivered"] {
			r.failf("%s transport delivered %d messages, the simulator %v", kind, det.Transport.Delivered, r.v["network.delivered"])
		}
	}
	return nil
}

// probeWire times the codec on the frame detection sends most: a µ-message.
func (r *run) probeWire() {
	const n = 200_000
	msg := wire.Remote{EvID: "cyc:m1017,m2034,m77", Pos: 2, Msg: [2]float64{0.731, 0.269}}
	var buf []byte
	enc := r.timed("wire.encode", func() {
		for i := 0; i < n; i++ {
			buf = wire.Append(buf[:0], msg)
		}
	})
	failed := 0
	dec := r.timed("wire.decode", func() {
		for i := 0; i < n; i++ {
			if got, err := wire.Decode(buf); err != nil || got != wire.Message(msg) {
				failed++
			}
		}
	})
	r.attempted += n
	if failed > 0 {
		r.failf("%d of %d µ-messages did not survive the wire codec", failed, n)
	}
	r.v["wire.encode_ns"] = float64(enc.Nanoseconds()) / n
	r.v["wire.decode_ns"] = float64(dec.Nanoseconds()) / n
	r.v["wire.bytes_per_msg"] = float64(len(buf))
}

// probeKernel sweeps the compiled factor-graph kernel. The allocation count
// of a sweep is the difference between a long and a short run of the same
// experiment, which cancels what building the graph allocates.
func (r *run) probeKernel() error {
	const vars, arity, short, long = 4000, 3, 2, 22
	sweep := func(sweeps int) (experiments.EngineScalePoint, uint64, time.Duration, error) {
		var pts []experiments.EngineScalePoint
		var err error
		m0 := mallocs()
		d := r.timed("factorgraph.sweeps", func() {
			pts, err = experiments.EngineScale([]int{vars}, arity, []int{1}, sweeps, r.seed)
		})
		if err != nil || len(pts) != 1 {
			return experiments.EngineScalePoint{}, 0, 0, fmt.Errorf("kernel sweep: %v (%d points)", err, len(pts))
		}
		return pts[0], mallocs() - m0, d, nil
	}
	_, allocShort, _, err := sweep(short)
	if err != nil {
		return err
	}
	pt, allocLong, _, err := sweep(long)
	if err != nil {
		return err
	}
	r.v["factorgraph.sweep_updates_per_s"] = pt.EdgesPerSec
	r.v["factorgraph.sweep_allocs"] = max(0, float64(allocLong)-float64(allocShort)) / (long - short)
	return nil
}
