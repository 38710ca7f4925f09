package exp

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"napmon/internal/core"
	"napmon/internal/nn"
	"napmon/internal/tensor"
)

// This file holds the model/monitor resolution of the serving daemon
// (cmd/napmon-serve): its startup flags and its PUT /v1/models/{name}
// route need the same "load files or self-train a Table I network"
// path, the same -shape parsing (shared with cmd/napmon-soak), and the
// same probe that turns a shape/model mismatch into a clean error
// instead of a panic inside a serving lane.

// InputShape resolves the input shape a daemon should accept: the
// -shape flag value when given (e.g. "1,28,28"), otherwise the
// dataset's native shape.
func InputShape(flagVal, ds string) ([]int, error) {
	if flagVal != "" {
		parts := strings.Split(flagVal, ",")
		shape := make([]int, len(parts))
		for i, p := range parts {
			d, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("bad -shape %q: dimensions must be positive integers", flagVal)
			}
			shape[i] = d
		}
		return shape, nil
	}
	switch ds {
	case "mnist":
		return []int{1, 28, 28}, nil
	case "gtsrb":
		return []int{3, 32, 32}, nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want mnist or gtsrb)", ds)
	}
}

// ProbeShape runs one width-1 batched forward pass — the path every
// serving lane runs — of a zero tensor with the gate shape through the
// model at startup. The layers and kernels panic on mismatched shapes;
// catching that here turns a -shape/-dataset flag that does not match
// the loaded model into a clean startup error, instead of a gate that
// rejects every valid request and lets a conformant-but-wrong one panic
// inside a serving lane.
func ProbeShape(net *nn.Network, shape []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("input shape %v incompatible with the model: %v (set -shape or -dataset to the model's input shape)", shape, r)
		}
	}()
	net.ForwardBatch([]*tensor.Tensor{tensor.New(shape...)}, nil)
	return nil
}

// LoadOrTrain resolves the model and monitor either from files written
// by napmon-train, or by training one of the Table I networks
// in-process at a reduced scale. logf receives progress lines in
// log.Printf style.
func LoadOrTrain(modelPath, monitorPath string, selftrain float64, ds string, seed uint64, gamma int, logf func(string, ...any)) (*nn.Network, *core.Monitor, error) {
	switch {
	case modelPath != "" && monitorPath != "":
		net, err := nn.LoadFile(modelPath)
		if err != nil {
			return nil, nil, err
		}
		mon, err := core.LoadFile(monitorPath)
		if err != nil {
			return nil, nil, err
		}
		return net, mon, nil
	case selftrain > 0:
		m, err := TrainDataset(ds, Options{Scale: selftrain, Seed: seed, Log: os.Stderr})
		if err != nil {
			return nil, nil, err
		}
		logf("self-trained %s (scale %.2f): train %.1f%%, val %.1f%%",
			m.Name, selftrain, 100*m.TrainAcc, 100*m.ValAcc)
		rows, mon, err := Table2ForModel(m, []int{gamma})
		if err != nil {
			return nil, nil, err
		}
		logf("monitor built (gamma=%d): out-of-pattern %.1f%% on validation",
			gamma, 100*rows[0].Metrics.OutOfPatternRate())
		return m.Net, mon, nil
	default:
		return nil, nil, errors.New("need either -model and -monitor, or -selftrain > 0")
	}
}
