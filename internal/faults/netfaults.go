package faults

import (
	"fmt"
	"sort"
	"sync"

	"videodrift/internal/stats"
	"videodrift/internal/wire"
)

// NetHeaderBytes is the wire header's size. Injected byte corruption
// lands strictly past the header so the receiver still frames the message
// correctly and the payload CRC — not a desynced stream — catches the
// damage.
const NetHeaderBytes = wire.HeaderSize

// NetFaultKind enumerates the injectable wire-level faults.
type NetFaultKind uint8

const (
	// NetCorruptByte flips one bit of one payload byte in flight, so the
	// receiver's CRC check rejects the message.
	NetCorruptByte NetFaultKind = iota
	// NetTornWrite cuts the write short mid-message and drops the
	// connection — the classic torn write a crashing sender produces.
	NetTornWrite

	netKindCount
)

var netKindNames = [netKindCount]string{
	"net_corrupt_byte",
	"net_torn_write",
}

// String returns the kind's snake_case name.
func (k NetFaultKind) String() string {
	if int(k) < len(netKindNames) {
		return netKindNames[k]
	}
	return fmt.Sprintf("netkind(%d)", int(k))
}

// NetFault is one scheduled wire fault: Kind fires on the Msg-th
// transmission the injector sees (0-based, counting retries — a resend
// of the same frame is a new transmission, so a faulted message's retry
// eventually goes through clean).
type NetFault struct {
	Msg  int
	Kind NetFaultKind
}

// NetSchedule is a seeded, replayable wire-fault plan, the network
// sibling of Schedule: identical schedules mangle identical bytes.
type NetSchedule struct {
	// Seed derives every data-dependent choice (which byte to flip,
	// where to tear the write).
	Seed int64
	// Faults holds the transmission-level faults, sorted by (msg, kind).
	Faults []NetFault
}

// GenerateNet builds a wire-fault schedule: over the first msgs
// transmissions, each independently suffers byte corruption with
// probability corruptRate and a torn write with probability tornRate.
// Same seed and arguments, same schedule.
func GenerateNet(seed int64, msgs int, corruptRate, tornRate float64) NetSchedule {
	r := stats.NewRNG(seed)
	s := NetSchedule{Seed: seed}
	for m := 0; m < msgs; m++ {
		if corruptRate > 0 && r.Float64() < corruptRate {
			s.Faults = append(s.Faults, NetFault{Msg: m, Kind: NetCorruptByte})
		}
		if tornRate > 0 && r.Float64() < tornRate {
			s.Faults = append(s.Faults, NetFault{Msg: m, Kind: NetTornWrite})
		}
	}
	sort.Slice(s.Faults, func(i, j int) bool {
		if s.Faults[i].Msg != s.Faults[j].Msg {
			return s.Faults[i].Msg < s.Faults[j].Msg
		}
		return s.Faults[i].Kind < s.Faults[j].Kind
	})
	return s
}

// NetStats counts the wire faults an injector has fired, by kind.
type NetStats struct {
	Fired [netKindCount]int
}

// Count returns the fired count for one kind.
func (s NetStats) Count(k NetFaultKind) int {
	if int(k) < len(s.Fired) {
		return s.Fired[k]
	}
	return 0
}

// Total returns the total wire faults fired.
func (s NetStats) Total() int {
	n := 0
	for _, c := range s.Fired {
		n += c
	}
	return n
}

// NetInjector replays a NetSchedule against a client's outgoing
// messages. All methods are safe on a nil receiver (no-ops) and for
// concurrent use. Mangled bytes derive only from (Seed, msg), never
// from call order.
type NetInjector struct {
	sched NetSchedule

	mu    sync.Mutex
	at    map[int][]NetFaultKind // transmission index → its faults
	stats NetStats
}

// NewNetInjector builds an injector over a wire-fault schedule.
func NewNetInjector(s NetSchedule) *NetInjector {
	in := &NetInjector{sched: s, at: make(map[int][]NetFaultKind, len(s.Faults))}
	for _, f := range s.Faults {
		in.at[f.Msg] = append(in.at[f.Msg], f.Kind)
	}
	return in
}

// Schedule returns the injector's schedule.
func (in *NetInjector) Schedule() NetSchedule {
	if in == nil {
		return NetSchedule{}
	}
	return in.sched
}

// Stats returns the counts of wire faults fired so far.
func (in *NetInjector) Stats() NetStats {
	if in == nil {
		return NetStats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Tx runs the faults scheduled for transmission msg on the encoded wire
// message b. It returns the bytes to actually write and whether the
// sender should drop the connection immediately after writing them (a
// torn write). The input is never mutated; with no fault scheduled the
// original slice comes back unchanged.
func (in *NetInjector) Tx(msg int, b []byte) ([]byte, bool) {
	if in == nil {
		return b, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	kinds := in.at[msg]
	if len(kinds) == 0 {
		return b, false
	}
	out, tear := b, false
	r := stats.NewRNG(in.sched.Seed ^ int64(msg)*7_919)
	for _, k := range kinds {
		switch k {
		case NetCorruptByte:
			if len(b) > NetHeaderBytes {
				c := append([]byte(nil), out...)
				i := NetHeaderBytes + r.Intn(len(c)-NetHeaderBytes)
				c[i] ^= 1 << uint(r.Intn(8))
				out = c
				in.stats.Fired[NetCorruptByte]++
			}
		case NetTornWrite:
			if len(out) > 1 {
				cut := 1 + r.Intn(len(out)-1)
				out = out[:cut]
			}
			tear = true
			in.stats.Fired[NetTornWrite]++
		}
	}
	return out, tear
}
