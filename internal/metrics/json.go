package metrics

import "encoding/json"

// MarshalJSON renders the series as an array of {t_min, v} objects, with
// time in minutes (the unit of the paper's plots).
func (ts *TimeSeries) MarshalJSON() ([]byte, error) {
	type pt struct {
		TMin float64 `json:"t_min"`
		V    float64 `json:"v"`
	}
	out := make([]pt, len(ts.points))
	for i, p := range ts.points {
		out[i] = pt{TMin: p.T.Minutes(), V: p.V}
	}
	return json.Marshal(out)
}

// MarshalJSON renders the CDF as its (value, fraction) curve.
func (c *CDF) MarshalJSON() ([]byte, error) {
	type pt struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}
	pts := c.Points()
	out := make([]pt, len(pts))
	for i, p := range pts {
		out[i] = pt{X: p.X, Y: p.Y}
	}
	return json.Marshal(out)
}

// MarshalJSON renders the scatter as an array of labelled points.
func (s *Scatter) MarshalJSON() ([]byte, error) {
	type pt struct {
		X      float64 `json:"x"`
		Y      float64 `json:"y"`
		Series string  `json:"series"`
	}
	out := make([]pt, len(s.points))
	for i, p := range s.points {
		out[i] = pt{X: p.X, Y: p.Y, Series: p.Series}
	}
	return json.Marshal(out)
}
