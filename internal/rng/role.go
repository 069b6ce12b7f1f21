package rng

import "math/rand"

// Role names one kind of production random stream. A run derives each of
// its streams from its root seed by the stream's role and, where the role
// has one stream per device or shard, that stream's id.
type Role uint8

const (
	// Device is device v's private stream (fed.Device.Rng): LDP noise,
	// negative samples and MCMC moves. Id v; device 0's is the root stream.
	Device Role = iota
	// SMCParty is device v's secure-comparison party (smc.NewParty), a
	// PCG seeded with the full 64-bit value. Id v.
	SMCParty
	// Server is the coordinator's stream (fed.NewServer).
	Server
	// Proposals is the Metropolis–Hastings proposal stream of tree trimming.
	Proposals
	// Model initialises the shared model's weights.
	Model
	// Dropout is engine shard i's dropout stream. Id i.
	Dropout
	// Churn drives device arrivals and departures in the simulator.
	Churn
	// Participation samples each round's participants in the simulator.
	Participation
	// Profiles is the seed handed to the simulator's fleet constructor.
	Profiles
	// KRegular builds a k-regular contact graph.
	KRegular
	// BarabasiAlbert builds a Barabási–Albert contact graph.
	BarabasiAlbert
	// LPGNN is the LPGNN baseline's encoding stream.
	LPGNN
	// NaiveFed is the naive federated baseline's perturbation stream.
	NaiveFed
	// BaselineModel initialises a baseline's model and drives its dropout.
	BaselineModel
	// CentralizedLink samples the centralized baseline's negative edges.
	CentralizedLink
	// NodeSplit is the evaluation harness's 50/25/25 node split.
	NodeSplit
	// EdgeSplit is the evaluation harness's 80/5/15 edge split.
	EdgeSplit
)

// roles holds each role's constants: a stream's seed is
// seed ^ xor ^ (id+off)·mul, so a role with mul 0 has one stream per run.
// The values are fixed: changing one changes its stream's draws and every
// recorded golden that reads them.
var roles = [...]struct{ xor, off, mul int64 }{
	Device:          {mul: 0x1e3779b97f4a7c15},
	SMCParty:        {off: 1, mul: 0x6a09e667f3bcc90},
	Server:          {xor: 0x5bf0a8b145769231},
	Proposals:       {xor: 0x42616c616e636572},
	Model:           {xor: 0x6d6f64656c},
	Dropout:         {off: 1, mul: 0x1f3d5b79a7c6e42d},
	Churn:           {xor: 0x636875726e},
	Participation:   {xor: 0x73616d706c65},
	Profiles:        {xor: 0x70726f66696c6573},
	KRegular:        {xor: 0x6b726567},
	BarabasiAlbert:  {xor: 0x62616c62},
	LPGNN:           {xor: 0x6c70676e6e},
	NaiveFed:        {xor: 0x6e616976},
	BaselineModel:   {xor: 0x62617365},
	CentralizedLink: {xor: 0x6c696e6b},
	NodeSplit:       {xor: 1},
	EdgeSplit:       {xor: 2},
}

// Derive returns the seed of role's stream id in the run seeded with seed.
// A role with one stream per run ignores id.
func Derive(seed int64, role Role, id int) int64 {
	r := roles[role]
	return seed ^ r.xor ^ (int64(id)+r.off)*r.mul
}

// Stream returns New(Derive(seed, role, id)).
func Stream(seed int64, role Role, id int) *rand.Rand {
	return New(Derive(seed, role, id))
}
