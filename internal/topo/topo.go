// Package topo describes interconnection network topologies: endpoints
// (compute nodes with an input adapter), switches, the links wiring
// them, and the deterministic routes over them. It provides a general
// builder plus generators for the paper's evaluated networks: the ad-hoc
// 7-node/2-switch Configuration #1 and k-ary n-trees (Configurations #2
// and #3, Table I), routed by DET, and leaf-spine fabrics.
package topo

import (
	"fmt"

	"repro/internal/sim"
)

// Kind classifies a device.
type Kind uint8

const (
	// Endpoint is a compute node: it injects and consumes traffic.
	Endpoint Kind = iota
	// Switch forwards traffic between its ports.
	Switch
)

func (k Kind) String() string {
	if k == Endpoint {
		return "endpoint"
	}
	return "switch"
}

// Conn describes what a device port is attached to. Zero-valued ports
// (Peer == -1 after building) are unconnected.
type Conn struct {
	Peer     int // peer device id, -1 if unconnected
	PeerPort int // port index on the peer
	Link     int // index into Topology.Links
}

// LinkSpec is a physical bidirectional link.
type LinkSpec struct {
	DevA, PortA   int
	DevB, PortB   int
	BytesPerCycle int       // bandwidth of each direction
	Delay         sim.Cycle // propagation delay of each direction
}

// Device is an endpoint or a switch.
type Device struct {
	ID    int
	Kind  Kind
	Label string
	Ports []Conn
	// Endpoint index (0..N-1) when Kind == Endpoint, else -1. Endpoint
	// ids are the destination namespace used by routing and packets.
	EndpointID int
}

// Topology is an immutable network description, routes included.
type Topology struct {
	Devices   []Device
	Links     []LinkSpec
	endpoints []int   // device id per endpoint index
	next      []int16 // next[dev*NumEndpoints()+dest]: see OutPort
	Name      string
}

// NumEndpoints returns the number of endpoints.
func (t *Topology) NumEndpoints() int { return len(t.endpoints) }

// EndpointDevice returns the device id of endpoint e.
func (t *Topology) EndpointDevice(e int) int { return t.endpoints[e] }

// Switches returns the device ids of all switches, in id order.
func (t *Topology) Switches() []int {
	var out []int
	for _, d := range t.Devices {
		if d.Kind == Switch {
			out = append(out, d.ID)
		}
	}
	return out
}

// Validate checks structural soundness: endpoints have exactly one
// connected port and link references are consistent. Connectivity is
// the routes' check: Build fails when a device cannot reach an endpoint.
func (t *Topology) Validate() error {
	for _, d := range t.Devices {
		conn := 0
		for pi, c := range d.Ports {
			if c.Peer < 0 {
				continue
			}
			conn++
			if c.Peer >= len(t.Devices) {
				return fmt.Errorf("topo %q: device %d port %d points at missing device %d", t.Name, d.ID, pi, c.Peer)
			}
			back := t.Devices[c.Peer].Ports[c.PeerPort]
			if back.Peer != d.ID || back.PeerPort != pi {
				return fmt.Errorf("topo %q: asymmetric wiring at device %d port %d", t.Name, d.ID, pi)
			}
			if c.Link < 0 || c.Link >= len(t.Links) {
				return fmt.Errorf("topo %q: device %d port %d has bad link index %d", t.Name, d.ID, pi, c.Link)
			}
		}
		if d.Kind == Endpoint && conn != 1 {
			return fmt.Errorf("topo %q: endpoint device %d has %d connected ports, want 1", t.Name, d.ID, conn)
		}
	}
	if len(t.Devices) == 0 {
		return fmt.Errorf("topo %q: empty", t.Name)
	}
	return nil
}

// Builder incrementally constructs a Topology.
type Builder struct {
	t Topology
	// default link parameters
	defBPC   int
	defDelay sim.Cycle
}

// NewBuilder returns a builder with default link parameters: one flit
// per cycle (2.5 GB/s) and the given propagation delay.
func NewBuilder(name string) *Builder {
	return &Builder{
		t:        Topology{Name: name},
		defBPC:   sim.FlitBytes,
		defDelay: DefaultLinkDelay,
	}
}

// DefaultLinkDelay is the propagation delay used unless overridden:
// 4 cycles = 102.4 ns, a typical HPC cable+serdes latency.
const DefaultLinkDelay sim.Cycle = 4

// SetDefaultLink overrides default link bandwidth (bytes/cycle) and delay.
func (b *Builder) SetDefaultLink(bytesPerCycle int, delay sim.Cycle) {
	b.defBPC = bytesPerCycle
	b.defDelay = delay
}

// AddEndpoint adds an endpoint and returns its device id.
func (b *Builder) AddEndpoint(label string) int {
	id := len(b.t.Devices)
	b.t.Devices = append(b.t.Devices, Device{
		ID: id, Kind: Endpoint, Label: label,
		Ports:      []Conn{{Peer: -1}},
		EndpointID: len(b.t.endpoints),
	})
	b.t.endpoints = append(b.t.endpoints, id)
	return id
}

// AddSwitch adds a switch with the given port count and returns its id.
func (b *Builder) AddSwitch(label string, ports int) int {
	id := len(b.t.Devices)
	ps := make([]Conn, ports)
	for i := range ps {
		ps[i].Peer = -1
	}
	b.t.Devices = append(b.t.Devices, Device{
		ID: id, Kind: Switch, Label: label, Ports: ps, EndpointID: -1,
	})
	return id
}

// Connect wires devA:portA <-> devB:portB with default link parameters.
func (b *Builder) Connect(devA, portA, devB, portB int) {
	b.ConnectLink(devA, portA, devB, portB, b.defBPC, b.defDelay)
}

// ConnectLink wires two ports with explicit bandwidth and delay.
func (b *Builder) ConnectLink(devA, portA, devB, portB, bytesPerCycle int, delay sim.Cycle) {
	if b.t.Devices[devA].Ports[portA].Peer >= 0 || b.t.Devices[devB].Ports[portB].Peer >= 0 {
		panic(fmt.Sprintf("topo: port already connected (%d:%d or %d:%d)", devA, portA, devB, portB))
	}
	li := len(b.t.Links)
	b.t.Links = append(b.t.Links, LinkSpec{
		DevA: devA, PortA: portA, DevB: devB, PortB: portB,
		BytesPerCycle: bytesPerCycle, Delay: delay,
	})
	b.t.Devices[devA].Ports[portA] = Conn{Peer: devB, PeerPort: portB, Link: li}
	b.t.Devices[devB].Ports[portB] = Conn{Peer: devA, PeerPort: portA, Link: li}
}

// Build finalizes and validates the topology and routes it, spreading
// equal-cost next hops across destinations by index.
func (b *Builder) Build() (*Topology, error) { return b.build(spread) }

// build is Build with the generator's own tie-break rule.
func (b *Builder) build(tb tieBreak) (*Topology, error) {
	t := b.t
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := t.route(tb); err != nil {
		return nil, err
	}
	return &t, nil
}

// MustBuild is Build that panics on error; for known-good generators.
func (b *Builder) MustBuild() *Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
