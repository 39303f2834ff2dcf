package main

import (
	"bytes"
	"encoding/xml"
	"io"
	"sort"
	"strconv"
	"strings"

	"rx/internal/core"
	rxml "rx/internal/xml"
)

// Everything in this file computes expected answers with the standard
// library's encoding/xml over the generated input bytes, never with the
// engine.

// canonical renders a document through encoding/xml as a normalized token
// string: attributes sorted by name, character data re-escaped, comments
// and processing instructions dropped.
func canonical(doc []byte) (string, error) {
	d := xml.NewDecoder(bytes.NewReader(doc))
	var sb strings.Builder
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return sb.String(), nil
		}
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			sb.WriteString("<" + t.Name.Space + ":" + t.Name.Local)
			attrs := append([]xml.Attr(nil), t.Attr...)
			sort.Slice(attrs, func(i, j int) bool {
				if attrs[i].Name.Space != attrs[j].Name.Space {
					return attrs[i].Name.Space < attrs[j].Name.Space
				}
				return attrs[i].Name.Local < attrs[j].Name.Local
			})
			for _, a := range attrs {
				sb.WriteString(" " + a.Name.Space + ":" + a.Name.Local + "=" + strconv.Quote(a.Value))
			}
			sb.WriteString(">")
		case xml.EndElement:
			sb.WriteString("</" + t.Name.Space + ":" + t.Name.Local + ">")
		case xml.CharData:
			xml.EscapeText(&sb, t)
		}
	}
}

// sameXML reports whether two documents are equal after canonicalization.
// Byte-identical documents are equal without decoding.
func sameXML(a, b []byte) (bool, error) {
	if bytes.Equal(a, b) {
		return true, nil
	}
	ca, err := canonical(a)
	if err != nil {
		return false, err
	}
	cb, err := canonical(b)
	if err != nil {
		return false, err
	}
	return ca == cb, nil
}

// order is what the lookup checks need from an Orders document.
type order struct {
	Customer string  `xml:"Customer"`
	Total    float64 `xml:"Total"`
}

func decodeOrder(doc []byte) (order, error) {
	var o order
	err := xml.Unmarshal(doc, &o)
	return o, err
}

// product is one Catalog product, as the Table-2 predicates see it.
type product struct {
	Name     string  `xml:"ProductName"`
	Price    float64 `xml:"RegPrice"`
	Discount float64 `xml:"Discount"`
}

func decodeCatalog(doc []byte) ([]product, error) {
	var c struct {
		Products []product `xml:"Categories>Product"`
	}
	err := xml.Unmarshal(doc, &c)
	return c.Products, err
}

// sameDocs reports whether the results' documents are exactly want (a
// document may contribute several results).
func sameDocs(got []core.Result, want map[rxml.DocID]bool) bool {
	seen := map[rxml.DocID]bool{}
	for _, r := range got {
		if !want[r.Doc] {
			return false
		}
		seen[r.Doc] = true
	}
	return len(seen) == len(want)
}
