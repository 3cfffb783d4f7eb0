// Package nn implements the paper's deep-learning substrate from scratch: a
// feed-forward neural network with the activation functions and optimizers
// evaluated in §4.3 of the paper (SELU + RMSprop is the configuration the
// paper selects), mini-batch backpropagation with MSE loss, an 80/20
// train/validation split, and JSON model serialization.
//
// The power and performance models in internal/core are both instances of
// this package's Network with three hidden layers of 64 neurons.
package nn

import (
	"fmt"
	"math"
	"sort"
)

// SELU constants from Klambauer et al. (2017), quoted in the paper's Eq. 2.
const (
	SELUAlpha = 1.67326324
	SELUScale = 1.05070098
)

// Activation is a scalar activation function with its derivative.
//
// Deriv receives both the pre-activation x and the activation output fx so
// implementations can use whichever form is cheaper.
type Activation interface {
	Name() string
	Func(x float64) float64
	Deriv(x, fx float64) float64
}

type (
	seluAct      struct{}
	reluAct      struct{}
	eluAct       struct{}
	leakyReLUAct struct{}
	sigmoidAct   struct{}
	tanhAct      struct{}
	softplusAct  struct{}
	softsignAct  struct{}
	linearAct    struct{}
)

func (seluAct) Name() string           { return "selu" }
func (seluAct) Func(x float64) float64 { return selu(x) }

func selu(x float64) float64 {
	if x > 0 {
		return SELUScale * x
	}
	return SELUScale * SELUAlpha * (math.Exp(x) - 1)
}
func (seluAct) Deriv(x, fx float64) float64 {
	if x > 0 {
		return SELUScale
	}
	// d/dx scale·alpha·(e^x − 1) = scale·alpha·e^x = fx + scale·alpha.
	return fx + SELUScale*SELUAlpha
}

func (reluAct) Name() string { return "relu" }
func (reluAct) Func(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
func (reluAct) Deriv(x, _ float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

func (eluAct) Name() string { return "elu" }
func (eluAct) Func(x float64) float64 {
	if x > 0 {
		return x
	}
	return math.Exp(x) - 1
}
func (eluAct) Deriv(x, fx float64) float64 {
	if x > 0 {
		return 1
	}
	return fx + 1
}

const leakySlope = 0.01

func (leakyReLUAct) Name() string { return "leaky_relu" }
func (leakyReLUAct) Func(x float64) float64 {
	if x > 0 {
		return x
	}
	return leakySlope * x
}
func (leakyReLUAct) Deriv(x, _ float64) float64 {
	if x > 0 {
		return 1
	}
	return leakySlope
}

func (sigmoidAct) Name() string { return "sigmoid" }
func (sigmoidAct) Func(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
func (sigmoidAct) Deriv(_, fx float64) float64 { return fx * (1 - fx) }

func (tanhAct) Name() string                { return "tanh" }
func (tanhAct) Func(x float64) float64      { return math.Tanh(x) }
func (tanhAct) Deriv(_, fx float64) float64 { return 1 - fx*fx }

func (softplusAct) Name() string { return "softplus" }
func (softplusAct) Func(x float64) float64 {
	// Numerically stable log(1+e^x).
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}
func (softplusAct) Deriv(x, _ float64) float64 { return 1 / (1 + math.Exp(-x)) }

func (softsignAct) Name() string { return "softsign" }
func (softsignAct) Func(x float64) float64 {
	return x / (1 + math.Abs(x))
}
func (softsignAct) Deriv(x, _ float64) float64 {
	d := 1 + math.Abs(x)
	return 1 / (d * d)
}

func (linearAct) Name() string               { return "linear" }
func (linearAct) Func(x float64) float64     { return x }
func (linearAct) Deriv(_, _ float64) float64 { return 1 }

var activations = map[string]Activation{
	"selu":       seluAct{},
	"relu":       reluAct{},
	"elu":        eluAct{},
	"leaky_relu": leakyReLUAct{},
	"sigmoid":    sigmoidAct{},
	"tanh":       tanhAct{},
	"softplus":   softplusAct{},
	"softsign":   softsignAct{},
	"linear":     linearAct{},
}

// ActivationByName returns the named activation function. The recognized
// names are those returned by ActivationNames.
func ActivationByName(name string) (Activation, error) {
	a, ok := activations[name]
	if !ok {
		return nil, fmt.Errorf("nn: unknown activation %q (have %v)", name, ActivationNames())
	}
	return a, nil
}

// ActivationNames lists all registered activation names, sorted.
func ActivationNames() []string {
	names := make([]string, 0, len(activations))
	for n := range activations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
