package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"saccs/internal/datasets"
	"saccs/internal/lexicon"
	"saccs/internal/mat"
	"saccs/internal/nn"
)

// trainedFingerprint is the SHA-256 of every encoder and tagger weight the
// served recipe trains (saccs.DefaultConfig: restaurants, fast scale,
// adversarial at ε 0.2). Training promises bit-identical weights for equal
// arguments on either kernel dispatch path, so this value moves only when
// the recipe or its arithmetic is changed on purpose.
const trainedFingerprint = "0f6b5112ca45f65c923bf3626bb699f4af7af9b512ab3c1f23ad283e924b29fd"

// paramsFingerprint hashes (name, float64 bits) of every parameter in order.
func paramsFingerprint(ps []*nn.Param) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range ps {
		h.Write([]byte(p.Name))
		h.Write([]byte{0})
		for _, w := range p.W.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainServedFingerprint hashes the served recipe's encoder and tagger head.
// TrainTagger keeps its encoder to itself, so the encoder is built again from
// the same inputs: training is deterministic, and the head's weights, trained
// on TrainTagger's own encoder, pin that encoder too.
func trainServedFingerprint() string {
	data := datasets.S1(datasets.Fast)
	enc := BuildEncoder(EncoderOptsFor(datasets.Fast), lexicon.Restaurants(), Tokens(data.Train))
	tg := TrainTagger(lexicon.Restaurants(), datasets.S1(datasets.Fast), datasets.Fast, true, 0.2, nn.Mixed, nil)
	return paramsFingerprint(append(enc.Params(), tg.Params()...))
}

// TestTrainTaggerFingerprint pins the trained weights bit for bit on the
// vector kernels and again on the pure-Go scalar path. `make check` runs it;
// -short skips it because it trains the served pipeline twice.
func TestTrainTaggerFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the served pipeline twice; run by make check")
	}
	for _, path := range []string{"vector", "scalar"} {
		t.Run(path, func(t *testing.T) {
			if path == "scalar" {
				defer mat.ForceScalar()()
			}
			if got := trainServedFingerprint(); got != trainedFingerprint {
				t.Fatalf("trained weights fingerprint %s, want %s", got, trainedFingerprint)
			}
		})
	}
}
