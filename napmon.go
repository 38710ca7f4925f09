package napmon

import (
	"context"
	"fmt"
	"io"
	"sort"

	"napmon/internal/core"
	"napmon/internal/dataset"
	"napmon/internal/nn"
	"napmon/internal/registry"
	"napmon/internal/rng"
	"napmon/internal/serve"
	"napmon/internal/tensor"
)

// The napmon package is the public facade over the repository's internal
// packages: it re-exports the monitor workflow (the paper's contribution)
// together with the network, tensor and dataset substrates a downstream
// user needs to drive it.

// Monitor is a neuron activation pattern monitor (paper Definition 3):
// one γ-comfort zone per monitored class, stored as compiled BDD query
// plans. A monitor is a live service, not a static artifact: Monitor.Update,
// Monitor.UpdateBatch and Monitor.UpdateGamma absorb newly observed
// activation patterns (or re-level γ) by building successors for the
// touched zones — a learn adds its patterns to a zone's overlay of
// recent patterns, and folds them into new plans once the overlay is
// full — and atomically publishing a new serving epoch, while readers
// keep serving the old one without a gap.
type Monitor = core.Monitor

// Config specifies which layer, classes and neurons a monitor covers and
// its Hamming enlargement γ.
type Config = core.Config

// Verdict is the outcome of watching one input.
type Verdict = core.Verdict

// Pattern is a binary neuron activation pattern (paper Definition 1).
type Pattern = core.Pattern

// ParsePattern decodes the 0/1 string form produced by Pattern.String —
// the wire format of the napmon-serve /watch response and /learn request,
// which lets a client feed flagged patterns straight back into
// Monitor.Update.
func ParsePattern(s string) (Pattern, error) { return core.ParsePattern(s) }

// Metrics aggregates monitor evaluation statistics (the paper's Table II
// columns).
type Metrics = core.Metrics

// Network is a feed-forward neural network (convolutions, pooling, batch
// normalization, fully-connected layers, ReLU).
type Network = nn.Network

// Sample is one labelled input.
type Sample = nn.Sample

// TrainConfig controls SGD training.
type TrainConfig = nn.TrainConfig

// LayerSpec describes one layer for building networks declaratively.
type LayerSpec = nn.Spec

// Tensor is a dense float64 array: the type of inputs, weights and every
// inference result. Batched inference computes in float32 on float32
// copies of the weights and widens the logits and captured activations
// back (see Network.ForwardBatch); training runs in float64.
type Tensor = tensor.Tensor

// RNG is a deterministic random number source.
type RNG = rng.Source

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewTensor returns a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// TensorFromSlice wraps data (not copied) in a tensor of the given shape.
func TensorFromSlice(data []float64, shape ...int) *Tensor {
	return tensor.FromSlice(data, shape...)
}

// BuildNetwork constructs a freshly initialized network from layer specs.
func BuildNetwork(specs []LayerSpec, r *RNG) (*Network, error) {
	return nn.Build(specs, r)
}

// Train runs mini-batch SGD over the samples and returns per-epoch stats.
func Train(net *Network, samples []Sample, cfg TrainConfig) []nn.EpochStats {
	return nn.Train(net, samples, cfg)
}

// Accuracy returns the fraction of samples the network classifies
// correctly.
func Accuracy(net *Network, samples []Sample) float64 {
	return nn.Accuracy(net, samples)
}

// LoadModel reads a network written with Network.Save.
func LoadModel(r io.Reader) (*Network, error) { return nn.Load(r) }

// BuildMonitor runs the paper's Algorithm 1: it records the activation
// pattern of every correctly classified training sample in its class's
// comfort zone and enlarges each zone to cfg.Gamma. Both phases run on
// all cores: inference over a sample worker pool, then per-class zone
// construction over a class worker pool (each class's BDD manager is an
// independent single-writer shard), with results identical to a
// sequential build regardless of GOMAXPROCS. The monitor it returns is
// already serving epoch 1: every zone is compiled and immutable, and it
// changes only through the Update family.
func BuildMonitor(net *Network, train []Sample, cfg Config) (*Monitor, error) {
	return core.Build(net, train, cfg)
}

// LoadMonitorFile reads a monitor from a file written with
// Monitor.SaveFile (or by napmon-train -monitor): one snapshot in the
// LoadSnapshot format. The monitor serves at the file's epoch.
func LoadMonitorFile(path string) (*Monitor, error) { return core.LoadFile(path) }

// EvaluateMonitor runs the monitor over a labelled dataset and aggregates
// the paper's Table II statistics.
func EvaluateMonitor(net *Network, m *Monitor, samples []Sample) Metrics {
	return core.Evaluate(net, m, samples)
}

// WatchBatch is the batched serving front end: it runs inference and the
// comfort-zone membership query for every input and returns one Verdict
// per input, in input order. Whole micro-batches flow through the
// batched float32 GEMM inference path (Network.ForwardBatch: one stripe-fused
// convolution or blocked matrix multiply per layer, fused bias+ReLU —
// and, for conv→ReLU→maxpool blocks, bias+ReLU+pool — epilogues, pooled
// allocation-free scratch), split across GOMAXPROCS workers on
// multi-core hosts. Membership queries are grouped by predicted class
// and answered from each zone's compiled query plan in one batched walk
// per class per chunk. The zones are immutable from the moment the
// monitor is built, which makes concurrent WatchBatch calls from any
// number of goroutines safe by construction; a monitor grows only
// through the online-update path (Monitor.Update/UpdateBatch/UpdateGamma),
// which publishes whole new epochs — each batch pins one epoch, and every
// Verdict carries the epoch id it was computed against.
func WatchBatch(net *Network, m *Monitor, inputs []*Tensor) []Verdict {
	return m.WatchBatch(net, inputs)
}

// Server is the streaming serving front end: a long-lived service over
// one frozen monitor that accepts Submit calls from any number of
// goroutines through a bounded request queue and coalesces them into
// micro-batches on the WatchBatch fast path. See Serve.
type Server = serve.Server

// ServerConfig sizes a Server: micro-batch size cap (MaxBatch),
// request-queue depth (backpressure), number of serving lanes (network
// replicas) and the input shape gate. The zero value selects sensible
// defaults.
type ServerConfig = serve.Config

// ServerStats is a snapshot of a Server's counters: queue depth,
// submitted/served/rejected totals, batch count and mean size, p50/p99
// request latency since start, and the online-update view (the
// monitor epoch currently serving plus the number of epochs its
// monitor has published).
type ServerStats = serve.Stats

// Future is the pending result of one Server.Submit; Wait blocks until
// the verdict is available (or the server aborted the request).
type Future = serve.Future

// ErrServerClosed is returned by Server.Submit and Server.SubmitAll after
// Shutdown has begun, and resolves any Future the server aborted.
var ErrServerClosed = serve.ErrServerClosed

// ErrExpired resolves the Future of a Server.SubmitCtx request whose
// context was cancelled or deadline-expired while it waited in the
// pipeline: the server sheds stale requests before spending inference
// on them (Stats.Expired counts the sheds).
var ErrExpired = serve.ErrExpired

// Serve starts a streaming serving front end over the network and
// monitor: requests submitted from any number of goroutines are queued,
// coalesced into micro-batches (a batch leaves the moment a lane is
// idle and grows, up to cfg.MaxBatch, only while every lane is busy) and
// executed on per-lane network replicas against the frozen monitor. The monitor stays updatable while serving —
// Server.Update/UpdateGamma publish new zone epochs that lanes pick up at
// micro-batch granularity without dropping a request. Stop the server
// with Server.Shutdown, which drains accepted requests. The
// cmd/napmon-serve binary wraps this in an HTTP daemon (POST /learn is
// the update endpoint).
//
// Serve is the one-tenant form of the fleet API: it loads the network
// and monitor as the DefaultTenant of a fresh Registry and returns that
// tenant's Server, so a single-model deployment pays nothing for the
// multi-tenant machinery while behaving identically to a one-entry
// ServeFleet. Callers who need hot load/unload, snapshots or
// replication should hold the Registry instead — see ServeFleet.
func Serve(net *Network, m *Monitor, cfg ServerConfig) (*Server, error) {
	r := registry.New(registry.Config{})
	t, err := r.Load(registry.DefaultTenant, registry.TenantConfig{Net: net, Mon: m, Serve: cfg})
	if err != nil {
		return nil, err
	}
	return t.Server(), nil
}

// --- Fleet serving: registry, snapshots, replication ---

// Registry is the multi-tenant fleet front end: a concurrent map from
// tenant name to a live (network, monitor, server) lane that supports
// hot load and unload while traffic flows. Lookup pins a tenant against
// unload (Acquire/AcquireID + Release); Unload publishes the removal
// immediately but drains the tenant's server gracefully, so in-flight
// batches always complete. Each tenant carries a bounded epoch-keyed
// delta log (Tenant.DeltasSince / Tenant.ApplyDelta) and a compact
// snapshot codec (Tenant.Snapshot / Registry.LoadSnapshot), which
// together form the leader→follower replication protocol used by
// `napmon-serve -follow`. See DESIGN.md, "Multi-tenant registry,
// snapshots, replication".
type Registry = registry.Registry

// Tenant is one named model lane inside a Registry: its network,
// monitor and streaming Server, plus the replication surface (Learn,
// UpdateGamma, Snapshot, DeltasSince, ApplyDelta). A Tenant returned by
// Acquire/AcquireID is pinned and must be Released.
type Tenant = registry.Tenant

// RegistryConfig sizes a Registry: the drain grace period applied when
// a tenant is unloaded and the per-tenant delta-log capacity bounding
// how far behind a replication follower may fall before it must
// re-snapshot. The zero value selects sensible defaults.
type RegistryConfig = registry.Config

// TenantConfig describes one tenant to load: its network, monitor and
// the ServerConfig for its serving lane.
type TenantConfig = registry.TenantConfig

// DeltaEntry is one replicated monitor update: the epoch it published
// plus either a per-class pattern delta or a γ re-level. Streams of
// entries encode with EncodeDeltaStream / DecodeDeltaStream; a
// follower applies them in epoch order with Tenant.ApplyDelta and
// converges bit-for-bit with the leader's monitor.
type DeltaEntry = core.DeltaEntry

// DefaultTenant is the tenant name the single-tenant surfaces map to:
// napmon.Serve, the model cmd/napmon-serve loads from its flags, and
// wire-protocol frames carrying tenant id 0.
const DefaultTenant = registry.DefaultTenant

// Fleet registry errors, re-exported for errors.Is against facade
// calls.
var (
	// ErrTenantNotFound reports a lookup for a name or wire id that no
	// loaded tenant matches.
	ErrTenantNotFound = registry.ErrNotFound
	// ErrTenantExists reports a Load under a name already serving.
	ErrTenantExists = registry.ErrExists
	// ErrRegistryClosed reports use of a Registry after Close.
	ErrRegistryClosed = registry.ErrClosed
	// ErrDeltaGap reports that a follower asked for deltas older than
	// the leader's bounded log retains; the follower must re-snapshot.
	ErrDeltaGap = registry.ErrDeltaGap
)

// NewRegistry returns an empty fleet registry. Load tenants with
// Registry.Load (or warm-start them from a leader snapshot with
// Registry.LoadSnapshot), then route traffic by name or wire id via
// Acquire/AcquireID.
func NewRegistry(cfg RegistryConfig) *Registry { return registry.New(cfg) }

// ServeFleet builds a Registry and loads every named tenant, in
// lexical name order so wire ids assign deterministically. It is the
// multi-tenant analogue of Serve: one call takes a fleet of
// (network, monitor, server-config) triples live. On any load failure
// the partially built fleet is torn down and the error identifies the
// offending tenant.
func ServeFleet(cfg RegistryConfig, tenants map[string]TenantConfig) (*Registry, error) {
	r := registry.New(cfg)
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := r.Load(name, tenants[name]); err != nil {
			r.Close(context.Background())
			return nil, fmt.Errorf("napmon: load tenant %q: %w", name, err)
		}
	}
	return r, nil
}

// LoadSnapshot reads a compact monitor snapshot written with
// Monitor.Snapshot: compiled zone query plans plus bit-packed patterns,
// checksummed, with the trailing delta-log entries the leader saved
// alongside. The returned monitor serves at the leader's epoch and
// answers queries identically; Registry.LoadSnapshot wraps this to
// warm-start a serving tenant directly.
func LoadSnapshot(r io.Reader) (*Monitor, []DeltaEntry, error) {
	return core.LoadSnapshot(r)
}

// EncodeDeltaStream frames replication deltas for transport: the
// leader's answer to a follower's "give me everything since epoch N".
// width is the monitored pattern width (Monitor.Neurons).
func EncodeDeltaStream(width int, entries []DeltaEntry) ([]byte, error) {
	return core.EncodeDeltaStream(width, entries)
}

// DecodeDeltaStream parses a delta stream produced by EncodeDeltaStream.
func DecodeDeltaStream(data []byte, width int) ([]DeltaEntry, error) {
	return core.DecodeDeltaStream(data, width)
}

// GammaSweep evaluates the monitor at each γ in gammas.
func GammaSweep(net *Network, m *Monitor, samples []Sample, gammas []int) []Metrics {
	return core.GammaSweep(net, m, samples, gammas)
}

// InferGamma grows γ on a validation set until flagged decisions are
// likely misclassifications (the paper's "infer when to stop enlarging").
func InferGamma(net *Network, m *Monitor, validation []Sample,
	minPrecision, minRate float64, maxGamma int) (int, []Metrics) {
	return core.InferGamma(net, m, validation, minPrecision, minRate, maxGamma)
}

// SelectNeurons picks the most decision-relevant neurons of a layer by
// gradient-based sensitivity analysis, for monitoring wide layers within
// the BDD variable budget.
func SelectNeurons(net *Network, samples []Sample, layer int, fraction float64) ([]int, error) {
	return core.SelectNeurons(net, samples, layer, fraction)
}

// SelectNeuronsForClass ranks neurons by their influence on one class's
// logit.
func SelectNeuronsForClass(net *Network, samples []Sample, layer, class int, fraction float64) ([]int, error) {
	return core.SelectNeuronsForClass(net, samples, layer, class, fraction)
}

// Dataset is a labelled train/validation pair.
type Dataset = dataset.Dataset

// MNISTLike generates the synthetic 28×28 digit dataset used by the
// experiments (a procedural stand-in for MNIST; see DESIGN.md).
func MNISTLike(nTrain, nVal int, seed uint64) Dataset {
	return dataset.MNISTLike(nTrain, nVal, seed)
}

// GTSRBLike generates the synthetic 32×32 traffic-sign dataset (a
// procedural stand-in for GTSRB with 43 classes; class 14 is the stop
// sign).
func GTSRBLike(nTrain, nVal int, seed uint64) Dataset {
	return dataset.GTSRBLike(nTrain, nVal, seed)
}

// Layer spec kind names, re-exported for declarative network building.
const (
	KindConv    = nn.KindConv
	KindDense   = nn.KindDense
	KindReLU    = nn.KindReLU
	KindMaxPool = nn.KindMaxPool
	KindBN      = nn.KindBN
	KindFlatten = nn.KindFlatten
)

// StopSignClass is the stop-sign class index in the GTSRB-like dataset.
const StopSignClass = dataset.StopSignClass
