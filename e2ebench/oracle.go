package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/apps/counter"
)

// counterModel is the reference for the counter graph: the exact number of
// increments sent per key. It also counts, per checkpoint interval, the
// distinct keys written (state churn).
type counterModel struct {
	want     []uint32
	epoch    []uint32 // interval in which each key was last written
	cur      uint32
	distinct int
}

func newCounterModel(keys int) *counterModel {
	return &counterModel{want: make([]uint32, keys), epoch: make([]uint32, keys), cur: 1}
}

func (m *counterModel) inc(key uint64) {
	m.want[key]++
	if m.epoch[key] != m.cur {
		m.epoch[key] = m.cur
		m.distinct++
	}
}

// cut closes a checkpoint interval and returns its churn in percent of keys.
func (m *counterModel) cut() float64 {
	pct := 100 * float64(m.distinct) / float64(len(m.want))
	m.cur++
	m.distinct = 0
	return pct
}

// checkCounts requires the dumped counters to equal want exactly: a lost
// increment leaves a key short, a duplicated one overshoots.
func checkCounts(want []uint32, dump map[uint64][]byte) error {
	present := 0
	for k, w := range want {
		v, ok := dump[uint64(k)]
		if w == 0 {
			if ok {
				return fmt.Errorf("counter %d: present with count %d, never incremented", k, counter.Count(v))
			}
			continue
		}
		present++
		got := counter.Count(v)
		switch {
		case !ok:
			return fmt.Errorf("counter %d: missing, want %d", k, w)
		case got < uint64(w):
			return fmt.Errorf("counter %d: %d, want %d (%d lost)", k, got, w, uint64(w)-got)
		case got > uint64(w):
			return fmt.Errorf("counter %d: %d, want %d (%d duplicated)", k, got, w, got-uint64(w))
		}
	}
	if len(dump) != present {
		return fmt.Errorf("dump holds %d keys, want %d", len(dump), present)
	}
	return nil
}

// kvValueSize is the stored value size of the kv workload.
const kvValueSize = 64

// kvModel is one kv-call client's reference: the version of the value last
// written to each key it owns. Clients own disjoint keys (key%clients ==
// client), so each client's history is sequential and a get must return
// exactly the client's last put.
type kvModel struct {
	seed     int64
	client   int
	clients  int
	ver      []uint32 // by local index key/clients
	epoch    []uint32
	cur      uint32
	distinct int
}

func newKVModel(seed int64, client, clients, keys int) *kvModel {
	n := keys / clients
	return &kvModel{seed: seed, client: client, clients: clients,
		ver: make([]uint32, n), epoch: make([]uint32, n), cur: 1}
}

// key maps a local index to the global key this client owns.
func (m *kvModel) key(local uint64) uint64 {
	return local*uint64(m.clients) + uint64(m.client)
}

// value is the deterministic payload of version ver of key.
func (m *kvModel) value(key uint64, ver uint32) []byte {
	v := make([]byte, kvValueSize)
	x := uint64(m.seed)*0x9e3779b97f4a7c15 ^ key<<20 ^ uint64(ver)
	for i := 0; i < kvValueSize; i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	return v
}

func (m *kvModel) current(local uint64) []byte {
	return m.value(m.key(local), m.ver[local])
}

// put records a successful write of version ver[local]+1.
func (m *kvModel) put(local uint64) {
	m.ver[local]++
	if m.epoch[local] != m.cur {
		m.epoch[local] = m.cur
		m.distinct++
	}
}

// checkGet compares a get reply with the reference.
func (m *kvModel) checkGet(local uint64, got any) error {
	b, _ := got.([]byte)
	if want := m.current(local); !bytes.Equal(b, want) {
		return fmt.Errorf("get(%d) = %x, want version %d %x", m.key(local), b, m.ver[local], want)
	}
	return nil
}

// checkDump compares this client's keys in a store dump with the reference.
func (m *kvModel) checkDump(dump map[uint64][]byte) error {
	for local := range m.ver {
		k := m.key(uint64(local))
		v, ok := dump[k]
		if !ok {
			return fmt.Errorf("key %d missing from dump", k)
		}
		if want := m.current(uint64(local)); !bytes.Equal(v, want) {
			return fmt.Errorf("key %d: dump %x, want version %d %x", k, v, m.ver[local], want)
		}
	}
	return nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
