package main

import (
	"os"
	"path/filepath"
	"time"

	"github.com/totem-rrp/totem/internal/logd"
	"github.com/totem-rrp/totem/internal/wire"
)

// micro.go holds the isolated replays: a layer driven on its own, at the
// workload's sizes, for the costs no boundary of the running system
// exposes. Each takes the median of a few short repetitions.

const microReps = 5

// wireMicro replays count messages of msgLen bytes through the Packer, the
// data-packet codec and the Assembler, and reports ns per message packed,
// ns per packet encoded and ns per message decoded and reassembled. bulk
// sends them down the bulk lane (fragmenting) instead of the interactive
// one (packing).
func wireMicro(out *outcome, msgLen int, bulk bool) {
	pack, enc, asm := wireReplay(msgLen, bulk)
	out.set("wire.pack_ns_per_msg", pack)
	out.set("wire.encode_ns_per_pkt", enc)
	out.set("wire.assemble_ns_per_msg", asm)
}

func wireReplay(msgLen int, bulk bool) (packNs, encodeNs, assembleNs float64) {
	count := max(64, (256<<10)/msgLen)
	var packs, encs, asms []float64
	for rep := 0; rep < microReps; rep++ {
		msgs := make([][]byte, count)
		for i := range msgs {
			msgs[i] = make([]byte, msgLen)
		}
		var p wire.Packer
		start := time.Now()
		for _, m := range msgs {
			if bulk {
				p.EnqueueBulk(m)
			} else {
				p.Enqueue(m)
			}
		}
		var packets [][]wire.Chunk
		for {
			chunks := p.NextChunks()
			if chunks == nil {
				break
			}
			packets = append(packets, chunks)
		}
		packs = append(packs, float64(time.Since(start))/float64(count))

		frames := make([][]byte, len(packets))
		start = time.Now()
		for i, chunks := range packets {
			pkt := wire.DataPacket{Sender: 1, Seq: uint32(i), Chunks: chunks}
			frame, err := pkt.AppendEncode(wire.GetFrame())
			if err != nil {
				return 0, 0, 0
			}
			frames[i] = frame
		}
		encs = append(encs, float64(time.Since(start))/float64(len(packets)))

		asm := wire.NewAssembler()
		done := 0
		start = time.Now()
		for _, frame := range frames {
			pkt, err := wire.DecodeData(frame)
			if err != nil {
				return 0, 0, 0
			}
			for _, ch := range pkt.Chunks {
				if _, ok := asm.Add(pkt.Sender, ch); ok {
					done++
				}
			}
		}
		asms = append(asms, float64(time.Since(start))/float64(count))
		for _, frame := range frames {
			wire.PutFrame(frame)
		}
		if done != count {
			return 0, 0, 0
		}
	}
	return median(packs), median(encs), median(asms)
}

// admissionMicro times one pass through the front-door gate as the logd
// workloads configure it: AllowClient, Acquire, Release.
func admissionMicro(opt logd.AdmissionOptions) float64 {
	adm := logd.NewAdmission(opt)
	const n = 200000
	var runs []float64
	for rep := 0; rep < microReps; rep++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if adm.AllowClient("bench") && adm.Acquire() {
				adm.Release()
			}
		}
		runs = append(runs, float64(time.Since(start))/n)
	}
	return median(runs)
}

// fsyncMicro writes and syncs recordLen bytes n times in dir and returns
// the median µs — the host's floor under every group commit.
func fsyncMicro(dir string, recordLen, n int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.CreateTemp(dir, "fsync-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, recordLen)
	var us []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us), nil
}

// storeMicro drives a scratch Store on its own: batches of one record of
// recordLen bytes through Apply (µs per batch, fsync included), then a
// sequential Read of everything written (MB/s of payload).
func storeMicro(dir string, opt logd.StoreOptions, recordLen, batches int) (applyUs, readMBps float64, err error) {
	dir = filepath.Join(dir, "store-micro")
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	st, err := logd.OpenStore(dir, opt)
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	payload := make([]byte, recordLen)
	var us []float64
	for i := 0; i < batches; i++ {
		start := time.Now()
		_, err := st.Apply([]logd.Incoming{{Kind: logd.KindData, Client: "micro", Seq: uint64(i + 1), Payload: payload}})
		if err != nil {
			return 0, 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	start := time.Now()
	var from uint64
	bytes := 0
	for from < st.Next() {
		recs, err := st.Read(from, 512, 8<<20)
		if err != nil {
			return 0, 0, err
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			bytes += len(r.Payload)
		}
		from = recs[len(recs)-1].Offset + 1
	}
	return median(us), float64(bytes) / time.Since(start).Seconds() / 1e6, nil
}
