package ml

import (
	"errors"
	"fmt"
)

// Pipeline chains a Featurizer with a final Predictor, mirroring the
// structure of practical end-to-end prediction pipelines the paper observes
// ("featurizers such as text encoding and models such as decision trees").
type Pipeline struct {
	Name string
	Feat *Featurizer
	Pred Predictor
}

// NewPipeline constructs a pipeline.
func NewPipeline(name string, feat *Featurizer, pred Predictor) *Pipeline {
	return &Pipeline{Name: name, Feat: feat, Pred: pred}
}

// Fit fits the featurizer, transforms the frame and fits the predictor.
func (p *Pipeline) Fit(f *Frame, y []float64) error {
	if p.Feat == nil || p.Pred == nil {
		return errors.New("ml: Pipeline.Fit: pipeline is missing a featurizer or predictor")
	}
	if err := f.Validate(); err != nil {
		return err
	}
	if err := p.Feat.Fit(f); err != nil {
		return err
	}
	x, err := p.Feat.Transform(f)
	if err != nil {
		return err
	}
	return p.Pred.Fit(x, y)
}

// Predict is the deliberately interpreted, row-oriented scoring path: one
// featurization buffer allocation and full per-row dispatch per input row.
// This models the standalone "scikit-learn" baseline of Figure 4.
//
//flockvet:ignore deadexport Figure 4's interpreted row-at-a-time baseline, which the root ablation benchmark times
func (p *Pipeline) Predict(f *Frame) ([]float64, error) {
	cols, err := p.bindColumns(f)
	if err != nil {
		return nil, err
	}
	n := f.NumRows()
	out := make([]float64, n)
	for r := 0; r < n; r++ {
		buf := make([]float64, p.Feat.Width()) // interpreted path: per-row alloc
		p.Feat.TransformRow(cols, r, buf)
		out[r] = p.Pred.PredictRow(buf)
	}
	return out, nil
}

// PredictBatch is the efficient in-process path: vectorized featurization
// followed by a batch predict.
func (p *Pipeline) PredictBatch(f *Frame) ([]float64, error) {
	x, err := p.Feat.Transform(f)
	if err != nil {
		return nil, err
	}
	out := make([]float64, x.Rows)
	p.Pred.PredictInto(x, out)
	return out, nil
}

func (p *Pipeline) bindColumns(f *Frame) ([]*FrameCol, error) {
	cols := make([]*FrameCol, len(p.Feat.Slots))
	for i := range p.Feat.Slots {
		c := f.Col(p.Feat.Slots[i].ColName)
		if c == nil {
			return nil, fmt.Errorf("ml: Pipeline: column %q not in frame", p.Feat.Slots[i].ColName)
		}
		cols[i] = c
	}
	return cols, nil
}
