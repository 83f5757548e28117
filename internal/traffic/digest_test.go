package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"netmodel/internal/gen"
	"netmodel/internal/rng"
)

// workloadDigests pins the SHA-256 of the Simulate report JSON followed
// by the JSON of its WithFlowTrace flows, for every arrival process ×
// size law × engine, without failures and under random outages, on a
// 300-node BA map. Any change to the draw order of the arrival, size,
// destination or outage streams — or to the arithmetic of a law —
// moves a digest.
var workloadDigests = map[string]string{
	"poisson/pareto/epoch/none":      "b56855a08b969e00b251a66252f963b30d47c81512e8d9ea483af269d7ce2938",
	"poisson/pareto/epoch/random":    "ed8f3b4b37511cd3b368a9271280327d9088ba26690dae32d7eabda26f431000",
	"poisson/pareto/event/none":      "a315f38359e03b8dd5ec9e4c54b35a912d06311230ee59316b63b58a79f98c25",
	"poisson/pareto/event/random":    "939445b2ca56da0152cb553d44bb2c346f9435a55f38750c02d101d0a13840c1",
	"poisson/lognormal/epoch/none":   "119cb60b8dcbef69970c2634815fd787432a3aaea2ab5b184bfe3f1b9fb1a646",
	"poisson/lognormal/epoch/random": "7461147f05c93f2d2a6228034b18cbf1a6b0039bb2f5a1aabb4b2e39539b19e1",
	"poisson/lognormal/event/none":   "cef96ac58cbe42f0c207905576cdaefbff3c6bf1a2c70541016cc3ca23da39b8",
	"poisson/lognormal/event/random": "197bf6b1d16957f315da7d3749042629b4503ffca669a79e5922890d8a92fd17",
	"poisson/exp/epoch/none":         "d7ce9cb5eec653b96b96122ffee8be458ae426611c5450b9ae499e5286533c41",
	"poisson/exp/epoch/random":       "ab1cb24c5ce49acbbbb42e13697b04c30625baba1b0d1619789f3cbb682522b0",
	"poisson/exp/event/none":         "aea7a46a84a13e2e3538b698c9e4b9c3728e0d5b1e343bfce81af754bb0d6f41",
	"poisson/exp/event/random":       "a22dd1f5e40fd7adc1cf135aa5770f268cfffb1e15201593b8edf248862d42ab",
	"onoff/pareto/epoch/none":        "0bc20471c6f454b59879c70ebbf972c2de8b4a602e8d20a01ba903ebc6c783ae",
	"onoff/pareto/epoch/random":      "cce96091c171806d4282274d3c5097924da4c093aa4aa0025b813f937dafc78e",
	"onoff/pareto/event/none":        "9cb61c75e3872e2919c69328ce1fe77749490b245ec0b0c44c79c1e154b7956f",
	"onoff/pareto/event/random":      "03679b2eff10ccd3bb5cd7ce64a717d4be4345ce2d475089253821ec16644d93",
	"onoff/lognormal/epoch/none":     "257578f63e000e3f1f18ddcf370302e0b5ff8a0d62655facd27b035dc487253e",
	"onoff/lognormal/epoch/random":   "795b1505a3235e6d4f967febd3121bdff2558ade05a360b17cfdb82ca4af39db",
	"onoff/lognormal/event/none":     "7d9ca1994895bbd235658c5f3162c7bd8f3987c849b6fef26b7fb3f96d80322e",
	"onoff/lognormal/event/random":   "749a930b08183023557b00b3e38d4fba40c97139bb009fcf31f68f7ea5a05d89",
	"onoff/exp/epoch/none":           "52e18a73d6a8cea37c7ee8752c9dd917d65a5048fe5d31b939b7c830b5aae910",
	"onoff/exp/epoch/random":         "24fd900b1703516d709a938dcdb5ea5213053e0b35ecad3c95b4cf7e94f68433",
	"onoff/exp/event/none":           "24220f06804031d9a29c7a99e8d0b8c08583b2f2adb4f158b9b5d1d18ee4d193",
	"onoff/exp/event/random":         "be490c69ab13157de23b1668af67d0d575e60ec9c68b1046835f3de242a717d8",
}

func TestWorkloadDigestsPinned(t *testing.T) {
	top, err := gen.BA{N: 300, M: 2}.Generate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	s := top.G.Freeze()
	masses := make([]float64, s.N())
	for u := range masses {
		masses[u] = float64(s.Degree(u))
	}
	failures := map[string]*FailureSpec{
		"none":   nil,
		"random": {Mode: FailRandom, Links: 6, Nodes: 2, MTBF: 4, MTTR: 2, MaxRetries: 2},
	}
	for _, arrivals := range []string{"poisson", "onoff"} {
		for _, sizes := range []string{"pareto", "lognormal", "exp"} {
			for _, eng := range []string{EngineEpoch, EngineEvent} {
				for _, fail := range []string{"none", "random"} {
					name := arrivals + "/" + sizes + "/" + eng + "/" + fail
					spec := WorkloadSpec{Engine: eng, Arrivals: arrivals, Sizes: sizes,
						LoadFactor: 0.6, Epochs: 12, Failures: failures[fail]}
					rep, err := Simulate(s, masses, spec, rng.New(17), 2, WithFlowTrace())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if rep.Arrived == 0 {
						t.Fatalf("%s: no arrivals", name)
					}
					if fail == "random" && (rep.Failures == nil || rep.Failures.LinksFailed+rep.Failures.NodesFailed == 0) {
						t.Fatalf("%s: no outage reached the horizon", name)
					}
					repJSON, err := json.Marshal(rep)
					if err != nil {
						t.Fatal(err)
					}
					flowsJSON, err := json.Marshal(rep.Flows)
					if err != nil {
						t.Fatal(err)
					}
					h := sha256.New()
					h.Write(repJSON)
					h.Write(flowsJSON)
					if got := hex.EncodeToString(h.Sum(nil)); got != workloadDigests[name] {
						t.Errorf("%q: digest %s, pinned %s", name, got, workloadDigests[name])
					}
				}
			}
		}
	}
}
