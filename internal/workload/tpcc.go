package workload

import (
	"fmt"

	"repro/internal/ml"
)

// tpccSchema is the DDL for the (simplified) TPC-C schema.
var tpccSchema = []string{
	`CREATE TABLE warehouse (w_id int, w_name text, w_tax float, w_ytd float)`,
	`CREATE TABLE district (d_id int, d_w_id int, d_name text, d_tax float, d_ytd float, d_next_o_id int)`,
	`CREATE TABLE customer_t (c_id int, c_d_id int, c_w_id int, c_last text, c_balance float, c_ytd_payment float, c_payment_cnt int, c_delivery_cnt int)`,
	`CREATE TABLE orders_t (o_id int, o_d_id int, o_w_id int, o_c_id int, o_entry_d text, o_carrier_id int, o_ol_cnt int)`,
	`CREATE TABLE new_order (no_o_id int, no_d_id int, no_w_id int)`,
	`CREATE TABLE order_line (ol_o_id int, ol_d_id int, ol_w_id int, ol_number int, ol_i_id int, ol_quantity int, ol_amount float, ol_delivery_d text)`,
	`CREATE TABLE item (i_id int, i_name text, i_price float, i_data text)`,
	`CREATE TABLE stock (s_i_id int, s_w_id int, s_quantity int, s_ytd float, s_order_cnt int)`,
	`CREATE TABLE history (h_c_id int, h_d_id int, h_w_id int, h_date text, h_amount float)`,
}

// tpccGen generates parameterized TPC-C transactions.
type tpccGen struct {
	rng *ml.Rand
	oid int
}

// NewOrder renders the statements of one New-Order transaction
// (10 statements: reads of warehouse/district/customer/item/stock, the
// district sequence bump, and the order/new-order/order-line/stock writes).
func (g *tpccGen) NewOrder() []string {
	w := g.rng.Intn(10) + 1
	d := g.rng.Intn(10) + 1
	c := g.rng.Intn(3000) + 1
	item := g.rng.Intn(100000) + 1
	g.oid++
	o := 10000 + g.oid
	return []string{
		fmt.Sprintf("SELECT w_tax FROM warehouse WHERE w_id = %d", w),
		fmt.Sprintf("SELECT d_tax, d_next_o_id FROM district WHERE d_id = %d AND d_w_id = %d", d, w),
		fmt.Sprintf("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_id = %d AND d_w_id = %d", d, w),
		fmt.Sprintf("SELECT c_last, c_balance FROM customer_t WHERE c_id = %d AND c_d_id = %d AND c_w_id = %d", c, d, w),
		fmt.Sprintf("INSERT INTO orders_t (o_id, o_d_id, o_w_id, o_c_id, o_entry_d, o_carrier_id, o_ol_cnt) VALUES (%d, %d, %d, %d, '2019-06-01', 0, 1)", o, d, w, c),
		fmt.Sprintf("INSERT INTO new_order (no_o_id, no_d_id, no_w_id) VALUES (%d, %d, %d)", o, d, w),
		fmt.Sprintf("SELECT i_price, i_name, i_data FROM item WHERE i_id = %d", item),
		fmt.Sprintf("SELECT s_quantity FROM stock WHERE s_i_id = %d AND s_w_id = %d", item, w),
		fmt.Sprintf("UPDATE stock SET s_quantity = s_quantity - %d, s_ytd = s_ytd + %d, s_order_cnt = s_order_cnt + 1 WHERE s_i_id = %d AND s_w_id = %d",
			g.rng.Intn(9)+1, g.rng.Intn(9)+1, item, w),
		fmt.Sprintf("INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, ol_quantity, ol_amount, ol_delivery_d) VALUES (%d, %d, %d, 1, %d, %d, %d.00, '2019-06-02')",
			o, d, w, item, g.rng.Intn(9)+1, g.rng.Intn(900)+10),
	}
}

// Payment renders one Payment transaction (6 statements).
func (g *tpccGen) Payment() []string {
	w := g.rng.Intn(10) + 1
	d := g.rng.Intn(10) + 1
	c := g.rng.Intn(3000) + 1
	amt := g.rng.Intn(4900) + 100
	return []string{
		fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + %d.00 WHERE w_id = %d", amt, w),
		fmt.Sprintf("SELECT w_name FROM warehouse WHERE w_id = %d", w),
		fmt.Sprintf("UPDATE district SET d_ytd = d_ytd + %d.00 WHERE d_id = %d AND d_w_id = %d", amt, d, w),
		fmt.Sprintf("SELECT c_balance, c_ytd_payment FROM customer_t WHERE c_id = %d AND c_d_id = %d AND c_w_id = %d", c, d, w),
		fmt.Sprintf("UPDATE customer_t SET c_balance = c_balance - %d.00, c_ytd_payment = c_ytd_payment + %d.00, c_payment_cnt = c_payment_cnt + 1 WHERE c_id = %d AND c_d_id = %d AND c_w_id = %d",
			amt, amt, c, d, w),
		fmt.Sprintf("INSERT INTO history (h_c_id, h_d_id, h_w_id, h_date, h_amount) VALUES (%d, %d, %d, '2019-06-01', %d.00)", c, d, w, amt),
	}
}

// OrderStatus renders one Order-Status transaction (3 statements).
func (g *tpccGen) OrderStatus() []string {
	w := g.rng.Intn(10) + 1
	d := g.rng.Intn(10) + 1
	c := g.rng.Intn(3000) + 1
	return []string{
		fmt.Sprintf("SELECT c_balance, c_last FROM customer_t WHERE c_id = %d AND c_d_id = %d AND c_w_id = %d", c, d, w),
		fmt.Sprintf("SELECT o_id, o_entry_d, o_carrier_id FROM orders_t WHERE o_c_id = %d AND o_d_id = %d AND o_w_id = %d ORDER BY o_id DESC LIMIT 1", c, d, w),
		fmt.Sprintf("SELECT ol_i_id, ol_quantity, ol_amount, ol_delivery_d FROM order_line WHERE ol_o_id = %d AND ol_d_id = %d AND ol_w_id = %d", 10000+g.rng.Intn(100), d, w),
	}
}

// Delivery renders one Delivery transaction (5 statements, one district).
func (g *tpccGen) Delivery() []string {
	w := g.rng.Intn(10) + 1
	d := g.rng.Intn(10) + 1
	o := 10000 + g.rng.Intn(100)
	return []string{
		fmt.Sprintf("SELECT no_o_id FROM new_order WHERE no_d_id = %d AND no_w_id = %d ORDER BY no_o_id LIMIT 1", d, w),
		fmt.Sprintf("DELETE FROM new_order WHERE no_o_id = %d AND no_d_id = %d AND no_w_id = %d", o, d, w),
		fmt.Sprintf("UPDATE orders_t SET o_carrier_id = %d WHERE o_id = %d AND o_d_id = %d AND o_w_id = %d", g.rng.Intn(10)+1, o, d, w),
		fmt.Sprintf("UPDATE order_line SET ol_delivery_d = '2019-06-03' WHERE ol_o_id = %d AND ol_d_id = %d AND ol_w_id = %d", o, d, w),
		fmt.Sprintf("UPDATE customer_t SET c_balance = c_balance + %d.00, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_id = %d AND c_d_id = %d AND c_w_id = %d",
			g.rng.Intn(500)+1, g.rng.Intn(3000)+1, d, w),
	}
}

// StockLevel renders one Stock-Level transaction (2 statements).
func (g *tpccGen) StockLevel() []string {
	w := g.rng.Intn(10) + 1
	d := g.rng.Intn(10) + 1
	return []string{
		fmt.Sprintf("SELECT d_next_o_id FROM district WHERE d_id = %d AND d_w_id = %d", d, w),
		fmt.Sprintf("SELECT count(DISTINCT s_i_id) AS low_stock FROM order_line, stock WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id >= %d AND s_i_id = ol_i_id AND s_w_id = %d AND s_quantity < %d",
			w, d, 10000+g.rng.Intn(100), w, g.rng.Intn(10)+10),
	}
}

// TPCCWorkload generates n statements following the standard TPC-C
// transaction mix (~45% New-Order, ~43% Payment, ~4% each of Order-Status,
// Delivery and Stock-Level), which is write-heavy: one mix cycle runs
// 5 New-Order + 5 Payment + 1 of each read-mostly transaction.
func TPCCWorkload(n int, seed uint64) []string {
	g := &tpccGen{rng: ml.NewRand(seed)}
	out := make([]string, 0, n)
	for len(out) < n {
		for i := 0; i < 5; i++ {
			out = append(out, g.NewOrder()...)
			out = append(out, g.Payment()...)
		}
		out = append(out, g.OrderStatus()...)
		out = append(out, g.Delivery()...)
		out = append(out, g.StockLevel()...)
	}
	return out[:n]
}
